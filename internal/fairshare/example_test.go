package fairshare_test

import (
	"fmt"

	"lass/internal/fairshare"
)

// Two functions overload a 1000-unit cluster; the well-behaved third
// keeps its demand and the overloaded pair split the remainder by weight
// while each stays at or above its guaranteed share (paper §4.1).
func ExampleAdjust() {
	demands := []fairshare.Demand{
		{ID: "well-behaved", Weight: 1, Desired: 100},
		{ID: "hungry-a", Weight: 1, Desired: 700},
		{ID: "hungry-b", Weight: 2, Desired: 900},
	}
	allocs, _ := fairshare.Adjust(demands, 1000)
	for _, a := range allocs {
		fmt.Printf("%s: guaranteed=%d adjusted=%d\n", a.ID, a.Guaranteed, a.Adjusted)
	}
	// Output:
	// well-behaved: guaranteed=250 adjusted=100
	// hungry-a: guaranteed=250 adjusted=300
	// hungry-b: guaranteed=500 adjusted=600
}
