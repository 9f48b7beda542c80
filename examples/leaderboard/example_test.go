package main

// Example runs the program with its default flags; go test checks its
// output.
func Example() {
	main()
	// Output:
	// top contestants (id, total):
	//   [6, 1433]
	//   [5, 1184]
	// bottom contestants (id, total):
	//   [5, 1184]
	//   [6, 1433]
	// trending, last 100 votes (id, recent):
	//   [6, 61]
	//   [5, 39]
	// still in the running:
	//   [6, contestant6, 1433]
	//   [5, contestant5, 1184]
	// valid votes processed: 4152 of 5000 cast
}
