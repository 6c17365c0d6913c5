package patch

import (
	"reflect"
	"sync"
	"testing"

	"databreak/internal/asm"
	"databreak/internal/minic"
	"databreak/internal/monitor"
	"databreak/internal/sparc"
	"databreak/internal/workload"
)

// workloadAccesses returns every distinct load and store instruction of the
// ten compiled workloads.
func workloadAccesses(t *testing.T) []sparc.Instr {
	t.Helper()
	var accesses []sparc.Instr
	seen := make(map[sparc.Instr]bool)
	for _, p := range workload.All(1) {
		src, err := minic.Compile(p.Source)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		u, err := asm.Parse(p.Name+".s", src)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, it := range u.Items {
			in := it.Instr
			if it.Kind == asm.ItemInstr && (in.Op.IsLoad() || in.Op.IsStore()) && !seen[in] {
				seen[in] = true
				accesses = append(accesses, in)
			}
		}
	}
	return accesses
}

// wantCheckItems is the text path NewCheck replaces: CheckText's rendering,
// parsed, placed in section.
func wantCheckItems(t *testing.T, opts Options, st sparc.Instr, wt WriteType, id int, section asm.Section) []asm.Item {
	t.Helper()
	u, err := asm.Parse("__gen", CheckText(opts, st, wt, id))
	if err != nil {
		t.Fatalf("%v %+v: CheckText does not parse: %v", opts.Strategy, st, err)
	}
	for i := range u.Items {
		u.Items[i].Section = section
	}
	return u.Items
}

// TestCheckMatchesParsedText pins the parse-once check sequences to the
// text they are parsed from: for every distinct load and store of the ten
// workloads, under every checking strategy, with the monitor flag and the
// disabled-flag branch each on and off, for every write type and several
// ids, the placed items equal asm.Parse of CheckText's output.
func TestCheckMatchesParsedText(t *testing.T) {
	accesses := workloadAccesses(t)
	if len(accesses) == 0 {
		t.Fatal("no loads or stores in the workloads")
	}
	strategies := []Strategy{Bitmap, BitmapInline, BitmapInlineRegisters, Cache, CacheInline, HashCall}
	ids := []int{0, 1, 9, 10, 4711}
	n := 0
	for _, strat := range strategies {
		for _, flags := range []bool{false, true} {
			for _, skip := range []bool{false, true} {
				opts := Options{
					Strategy:           strat,
					Monitor:            monitor.Config{SegWords: 128, Flags: flags},
					SkipDisabledBranch: skip,
				}
				for _, st := range accesses {
					for wt := WriteStack; wt <= WriteBSSVar; wt++ {
						c, err := NewCheck(opts, st, wt)
						if err != nil {
							t.Fatalf("%v %+v: %v", strat, st, err)
						}
						for _, id := range ids {
							want := wantCheckItems(t, opts, st, wt, id, asm.SectionText)
							got := c.AppendTo(nil, id, asm.SectionText)
							if c.Len() != len(got) || !reflect.DeepEqual(got, want) {
								t.Fatalf("%v flags=%v skip=%v %v %+v id %d:\ngot  %+v\nwant %+v",
									strat, flags, skip, wt, st, id, got, want)
							}
							n++
						}
					}
				}
			}
		}
	}
	t.Logf("%d check sequences over %d distinct accesses", n, len(accesses))
}

// TestCheckAppendsInPlace places a sequence after existing items, in a
// non-text section, and checks the earlier items and the shared shape are
// left alone.
func TestCheckAppendsInPlace(t *testing.T) {
	opts := Options{Strategy: CacheInline, Monitor: monitor.Config{SegWords: 128, Flags: true}}
	st := sparc.StoreRI(sparc.O0, sparc.O1, -8)
	c, err := NewCheck(opts, st, WriteHeap)
	if err != nil {
		t.Fatal(err)
	}
	head := []asm.Item{{Kind: asm.ItemLabel, Label: "before", Section: asm.SectionData}}
	got := c.AppendTo(head[:1:1], 3, asm.SectionData)
	want := append([]asm.Item{head[0]}, wantCheckItems(t, opts, st, WriteHeap, 3, asm.SectionData)...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got  %+v\nwant %+v", got, want)
	}
	again := c.AppendTo(nil, 4, asm.SectionText)
	if !reflect.DeepEqual(again, wantCheckItems(t, opts, st, WriteHeap, 4, asm.SectionText)) {
		t.Fatal("a placed sequence changed the shared shape")
	}
	if (Check{}).Len() != 0 || len((Check{}).AppendTo(nil, 1, asm.SectionText)) != 0 {
		t.Fatal("the zero Check places items")
	}
}

// TestCheckErrorsMatchText checks that an access whose check text does not
// parse fails with the parser's own error, even when a shape with the same
// key is already cached, and that an invalid monitor configuration is
// rejected.
func TestCheckErrorsMatchText(t *testing.T) {
	opts := Options{Strategy: BitmapInlineRegisters, Monitor: monitor.DefaultConfig}
	if _, err := NewCheck(opts, sparc.StoreRI(sparc.O0, sparc.O2, 4), WriteHeap); err != nil {
		t.Fatal(err)
	}
	far := sparc.StoreRI(sparc.O0, sparc.O2, 5000) // beyond the add's 13-bit immediate
	_, want := asm.Parse("__gen", CheckText(opts, far, WriteHeap, 0))
	if want == nil {
		t.Fatal("an out-of-range immediate parsed")
	}
	if _, err := NewCheck(opts, far, WriteHeap); err == nil || err.Error() != want.Error() {
		t.Fatalf("NewCheck error = %v, want %v", err, want)
	}
	bad := Options{Strategy: Bitmap, Monitor: monitor.Config{SegWords: 100}}
	if _, err := NewCheck(bad, sparc.StoreRI(sparc.O0, sparc.O2, 4), WriteHeap); err == nil {
		t.Fatal("NewCheck accepted an invalid monitor configuration")
	}
}

// TestLibraryClones checks that every Library call returns the parsed
// library as a unit of its own: rewriting one leaves the next untouched.
func TestLibraryClones(t *testing.T) {
	src, err := monitor.LibrarySource(monitor.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	want, err := asm.Parse("__mrslib", src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Library(monitor.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatal("Library differs from the parsed library source")
	}
	a.Items[0] = asm.Item{Kind: asm.ItemLabel, Label: "clobbered"}
	b, err := Library(monitor.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, want) {
		t.Fatal("rewriting one Library result changed the next")
	}
	if _, err := Library(monitor.Config{SegWords: 3}); err == nil {
		t.Fatal("Library accepted an invalid configuration")
	}
}

// TestApplyUnitsExactSize checks that Apply allocates every unit it
// returns at exact size, for every strategy, with read checks and nop
// padding included.
func TestApplyUnitsExactSize(t *testing.T) {
	u, err := asm.Parse("prog.s", progGlobalStores)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{None, Bitmap, BitmapInline, BitmapInlineRegisters, Cache, CacheInline, Nops, HashCall} {
		res, err := Apply(Options{Strategy: s, Nops: 3, CheckReads: true}, u.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for _, nu := range res.Units {
			if cap(nu.Items) != len(nu.Items) {
				t.Errorf("%v: unit %s has %d items in capacity %d", s, nu.Name, len(nu.Items), cap(nu.Items))
			}
		}
	}
}

// TestApplyConcurrent patches the same program from several goroutines at
// once under a configuration no other test uses, so the shared library and
// check-shape caches are first filled concurrently; every worker's results
// must be identical. Run under -race.
func TestApplyConcurrent(t *testing.T) {
	u, err := asm.Parse("prog.s", progGlobalStores)
	if err != nil {
		t.Fatal(err)
	}
	cfg := monitor.Config{SegWords: 2048}
	strategies := []Strategy{Bitmap, BitmapInline, BitmapInlineRegisters, Cache, CacheInline}
	const workers = 8
	results := make([][]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, s := range strategies {
				res, err := Apply(Options{Strategy: s, Monitor: cfg}, u.Clone())
				if err != nil {
					t.Error(err)
					return
				}
				results[w] = append(results[w], res)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(results[w], results[0]) {
			t.Fatalf("worker %d patched differently from worker 0", w)
		}
	}
}
