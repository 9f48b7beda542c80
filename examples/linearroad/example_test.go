package main

// Example runs the program with its default flags; go test checks its
// output.
func Example() {
	main()
	// Output:
	// fed 20000 position reports for 4 x-ways across 2 cores
	//
	// partition 0: 100 vehicles, 92 notifications, 1 active accidents, stats through minute 49, 0 toll units charged
	// partition 1: 100 vehicles, 106 notifications, 3 active accidents, stats through minute 50, 0 toll units charged
}
