package main

// Example runs the program with its default flags; go test checks its
// output.
func Example() {
	main()
	// Output:
	// sensor averages (sensor, avg, readings):
	//   sensor 1: avg 22 over 3 readings
	//   sensor 2: avg 402 over 2 readings
}
