// Virtualization: the paper assumes one weight-matrix element per PE, so
// a 32-vertex problem nominally needs a 32x32 array. This example solves
// the same problem block-mapped onto smaller and smaller physical arrays
// (internal/virt) and shows the two halves of the trade: identical
// answers, communication cost scaled by exactly k = n/m.
package main

import (
	"fmt"
	"log"
	"reflect"

	"ppamcp"
)

func main() {
	const n = 32
	g := ppamcp.GenSmallWorld(n, 2, 0.2, 9, 3)
	const dest = 7

	full, err := ppamcp.Solve(g, dest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("problem: %d vertices, destination %d, h=%d bits\n\n", n, dest, full.Bits)
	fmt.Printf("%8s %4s %12s %12s %14s\n", "physical", "k", "bus cycles", "wired-OR", "stitch shifts")
	fmt.Printf("%8d %4d %12d %12d %14d   (the paper's assumption)\n",
		n, 1, full.Metrics.BusCycles, full.Metrics.WiredOrCycles, full.Metrics.ShiftSteps)

	for _, phys := range []int{16, 8, 4} {
		v, err := ppamcp.Solve(g, dest,
			ppamcp.WithPhysicalSide(phys), ppamcp.WithBits(full.Bits))
		if err != nil {
			log.Fatal(err)
		}
		if !reflect.DeepEqual(v.Dist, full.Dist) || !reflect.DeepEqual(v.Next, full.Next) {
			log.Fatalf("physical %dx%d produced different answers", phys, phys)
		}
		fmt.Printf("%8d %4d %12d %12d %14d\n",
			phys, n/phys, v.Metrics.BusCycles, v.Metrics.WiredOrCycles, v.Metrics.ShiftSteps)
	}

	fmt.Println("\nall runs produced identical distances and next-hop pointers;")
	fmt.Println("each halving of the physical side doubles the bus and wired-OR cycles —")
	fmt.Println("the classic SIMD virtualization law (experiment E6).")
}
