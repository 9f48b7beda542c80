package main

// Example runs the program with its default flags; go test checks its
// output.
func Example() {
	main()
	// Output:
	// revenue dashboard (region, orders, revenue):
	//   emea    3    585
	//   amer    2    430
	//   apac    2    375
	// raw orders: 7 rows / 1390 revenue; rollup: 7 orders / 1390 revenue
}
