// Forcefile runs a program written in the Force dialect itself through
// the whole language stack: the two-pass macro pipeline (shown with
// -expand, reproducing the paper's §4.3 sed+m4 flow), the parser/checker,
// and the SPMD interpreter on a selectable machine profile.
//
//	go run ./examples/forcefile [-np 8] [-machine sequent] [-expand]
package main

import (
	"flag"
	"fmt"
	"os"

	_ "embed"

	"repro/internal/forcelang"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/maclib"
	"repro/internal/sched"
)

//go:embed heat.force
var heatSource string

func main() {
	np := flag.Int("np", 8, "number of force processes")
	machName := flag.String("machine", "native", "machine profile for execution")
	selfK := flag.String("selfsched", sched.DefaultSelfsched.String(), "discipline for Selfsched DO loops (selfsched-lock: the paper's one iteration per lock)")
	expand := flag.Bool("expand", false, "also print the macro-pipeline expansion (generic layer)")
	flag.Parse()

	if *expand {
		out, err := maclib.Expand("generic", heatSource)
		if err != nil {
			fail(err)
		}
		fmt.Println("=== two-level macro expansion (generic machine layer) ===")
		fmt.Print(out)
		fmt.Println("=== end expansion ===")
	}

	prog, err := forcelang.Parse(heatSource)
	if err != nil {
		fail(err)
	}
	prof, err := machine.ByName(*machName)
	if err != nil {
		fail(err)
	}
	sk, err := sched.ParseSelfschedKind(*selfK)
	if err != nil {
		fail(err)
	}
	fmt.Printf("running Force program %s with np=%d on machine %q (%s)\n", prog.Name, *np, prof.Name, sk)
	if err := interp.Run(prog, interp.Config{
		NP:        *np,
		Machine:   prof,
		Stdout:    os.Stdout,
		Selfsched: sk,
	}); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "forcefile:", err)
	os.Exit(1)
}
