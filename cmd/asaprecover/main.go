// Command asaprecover demonstrates ASAP's crash recovery (§5.5): it runs
// a multi-threaded counter-and-marker workload, injects a power failure at
// the requested cycle, recovers the persisted image, and verifies that the
// result is an exact prefix of the execution — every committed region's
// writes present, every uncommitted region's writes rolled back, in
// dependence order.
//
// With -mix, a seeded persistence-domain fault mixture fires during the
// crash flush (dropped WPQ entries, torn persists, lost LH-WPQ headers —
// the same injector the torture and crash-consistency harnesses use).
// When validation then refuses to repair the image, the command prints
// the structured corruption classification — class, severity, damaged
// line, owning region — and exits with code 3, so scripts can tell
// "recovery correctly refused" from an ordinary failure.
//
// Exit codes: 0 recovered and verified, 1 failure (broken invariant or
// harness error), 2 usage, 3 recovery refused on a corrupt image.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"asap"
	"asap/internal/arch"
	"asap/internal/faults"
	"asap/internal/recovery"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asaprecover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	crashAt := fs.Uint64("crash", 8000, "crash injection cycle")
	threads := fs.Int("threads", 3, "worker threads")
	incs := fs.Int("incs", 10, "increments per thread")
	save := fs.String("save", "", "write the crash state to this file instead of recovering")
	load := fs.String("load", "", "recover a crash state previously written with -save")
	mixStr := fs.String("mix", "", "crash-time fault mixture, e.g. drop=0.5,lhdrop=1 (asapcrash torture syntax)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for the -mix fault decisions")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *load != "" {
		return recoverFromFile(*load, stdout, stderr)
	}

	var inj *faults.Injector
	if *mixStr != "" {
		mix, err := faults.ParseMix(*mixStr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		inj = faults.New(*faultSeed, mix)
	}

	cfg := asap.DefaultConfig()
	cfg.Cores = 4
	cfg.MemoryControllers, cfg.ChannelsPerMC = 1, 2
	cfg.WPQEntries = 4
	cfg.PMLatencyMultiplier = 16 // slow PM keeps regions in flight
	sys, err := asap.NewSystem(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if inj != nil {
		sys.Machine().Fabric.SetFaultInjector(inj)
	}

	counter := sys.Malloc(64)
	maxInc := *threads * *incs
	markers := sys.Malloc(64 * (maxInc + 1))
	var mu asap.Mutex
	var crash *asap.CrashState

	doCrash := func() {
		// Scope the fault decisions to the uncommitted regions, exactly
		// like the crash-consistency harness: recovery owes nothing for
		// committed data the media lost.
		if inj != nil {
			inj.SetScope(sys.Engine().UncommittedRIDs())
		}
		crash, _ = sys.Crash()
	}

	for w := 0; w < *threads; w++ {
		sys.Spawn("worker", func(t *asap.Thread) {
			for i := 0; i < *incs; i++ {
				if crash != nil {
					return
				}
				mu.Lock(t)
				t.Begin()
				v := t.LoadUint64(counter) + 1
				t.StoreUint64(counter, v)
				t.StoreUint64(markers+64*v, v)
				t.End()
				mu.Unlock(t)
				t.Compute(25)
				if t.Now() >= *crashAt && crash == nil {
					doCrash()
					return
				}
			}
			t.Drain()
		})
	}
	sys.Run()

	if crash == nil {
		fmt.Fprintln(stdout, "run completed before the crash point; re-run with a smaller -crash")
		doCrash()
	}

	fmt.Fprintf(stdout, "crashed at cycle %d\n", sys.Now())
	if inj != nil {
		for _, ev := range inj.Events() {
			fmt.Fprintf(stdout, "  fault: %s\n", ev)
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := crash.Save(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		f.Close()
		fmt.Fprintf(stdout, "crash state saved to %s; recover with -load %s\n", *save, *save)
		return 0
	}
	rep, err := crash.Recover()
	if err != nil {
		return reportRecoveryError(err, stderr)
	}
	fmt.Fprintf(stdout, "recovery: %d uncommitted regions rolled back, %d undo entries applied\n",
		rep.Uncommitted, rep.EntriesRestored)

	c := crash.ReadUint64(counter)
	fmt.Fprintf(stdout, "recovered counter = %d of %d increments\n", c, maxInc)
	ok := true
	for v := uint64(1); v <= uint64(maxInc); v++ {
		got := crash.ReadUint64(markers + 64*v)
		if v <= c && got != v {
			fmt.Fprintf(stdout, "  VIOLATION: marker[%d] = %d, want %d\n", v, got, v)
			ok = false
		}
		if v > c && got != 0 {
			fmt.Fprintf(stdout, "  VIOLATION: marker[%d] = %d should be rolled back\n", v, got)
			ok = false
		}
	}
	if !ok {
		return 1
	}
	fmt.Fprintln(stdout, "state is an exact consistent prefix: atomic durability held")
	return 0
}

// reportRecoveryError prints the structured corruption classification when
// recovery refused to repair the image, and maps the outcome to an exit
// code: 3 for a diagnosed refusal, 1 for anything else.
func reportRecoveryError(err error, stderr io.Writer) int {
	var ce *recovery.CorruptionError
	if !errors.As(err, &ce) {
		fmt.Fprintln(stderr, "recovery failed:", err)
		return 1
	}
	fmt.Fprintf(stderr, "recovery refused: %d unrecoverable finding(s); the image was left untouched\n", len(ce.Fatal))
	for _, c := range ce.Fatal {
		fmt.Fprintf(stderr, "  %-15s %-12s line %#x", c.Class, c.Severity, uint64(c.Line))
		if c.RID != arch.NoRID {
			fmt.Fprintf(stderr, " region %s", c.RID)
		}
		if c.Reason != "" {
			fmt.Fprintf(stderr, ": %s", c.Reason)
		}
		fmt.Fprintln(stderr)
	}
	return 3
}

// recoverFromFile loads a saved crash state — as a fresh process after the
// power failure would — and repairs it.
func recoverFromFile(path string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	crash, err := asap.LoadCrashState(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rep, err := crash.Recover()
	if err != nil {
		return reportRecoveryError(err, stderr)
	}
	fmt.Fprintf(stdout, "recovered from %s: %d uncommitted regions rolled back, %d undo entries applied\n",
		path, rep.Uncommitted, rep.EntriesRestored)
	return 0
}
