// Command tool is the fixture's one command: what it calls is live.
package main

import (
	"fmt"

	"fixture/internal/lib"
	"fixture/internal/other"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(s.Area(), lib.UsedByMain(), other.Twice(1))
}
