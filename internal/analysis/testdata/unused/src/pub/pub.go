// Package pub is a public package: its exported API may have readers
// outside the module.
package pub

import "internal/dead"

// Handle aliases an internal type, exposing its exported methods.
type Handle = dead.Exposed

// Total reads dead.Record.Sum, whose only reader this is. Its
// signature exposes no internal type.
func Total() int { return (&dead.Record{Kept: 1}).Sum() }
