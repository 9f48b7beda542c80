// Command app reads the internal package dead from a main package.
package main

import (
	"errors"
	"fmt"

	"internal/dead"
)

func main() {
	dead.UsedByMain()
	var s dead.Shape = dead.Square{Side: 2}
	fmt.Println(&dead.Record{Kept: 1}, s, errors.Is(dead.NotFound{}, dead.ErrMissing))
}
