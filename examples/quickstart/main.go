// Quickstart: the monitored region service as a plain Go library.
//
// A host program (here: a toy byte-addressed VM loop) calls CheckWrite on
// every store it performs; the service reports monitor hits through the
// notification callback. This is the paper's MRS interface: create and
// delete monitored regions, get called back on every write that lands in
// one.
package main

import (
	"fmt"
	"os"

	"databreak/internal/core"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "quickstart: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	// The notification callback of §2.
	svc := core.New(core.WithCallback(func(addr, size uint32) {
		fmt.Printf("monitor hit: %d-byte write at %#x\n", size, addr)
	}))

	// Watch an 8-byte region (say, a two-word struct at 0x1000).
	region := core.Region{Addr: 0x1000, Size: 8}
	if err := svc.CreateMonitoredRegion(region); err != nil {
		fatalf("create region: %v", err)
	}
	fmt.Printf("watching %v; service disabled: %v\n", region, svc.Disabled())

	// The host executes stores and checks each one.
	for _, w := range []struct{ addr, size uint32 }{
		{0x0ffc, 4}, // miss: just below the region
		{0x1000, 4}, // hit: first word
		{0x1004, 4}, // hit: second word
		{0x1008, 4}, // miss: just past it
		{0x0ffc, 8}, // hit: double word straddling into the region
	} {
		svc.CheckWrite(w.addr, w.size)
	}

	// Loop pre-header range checks (§4.3): does an address range touch a
	// monitored region?
	fmt.Printf("range [0x0f00,0x10ff] may intersect: %v\n", svc.CheckRange(0x0f00, 0x10ff))
	fmt.Printf("range [0x9000,0x9fff] may intersect: %v\n", svc.CheckRange(0x9000, 0x9fff))

	if err := svc.DeleteMonitoredRegion(region); err != nil {
		fatalf("delete region: %v", err)
	}
	st := svc.Stats()
	fmt.Printf("checks=%d hits=%d rangeChecks=%d rangeHits=%d disabled=%v\n",
		st.Checks, st.Hits, st.RangeChecks, st.RangeHits, svc.Disabled())
}
