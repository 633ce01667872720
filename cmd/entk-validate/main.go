// Command entk-validate reruns every reproduced experiment and asserts
// the paper's qualitative findings hold (the Check methods in
// internal/workload): similar execution times across patterns, constant
// core overhead, task-linear pattern overhead, ~ideal strong scaling,
// flat weak scaling, growing serial stages, and the ablation expectations.
// It exits non-zero if any shape check fails.
//
// With -print it also prints each experiment's table: the paper's
// Figures 3-9 plus the design ablations. Absolute numbers come from the
// simulated testbed's calibrated cost models; the shapes — who wins, by
// what factor, where the crossovers fall — are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"

	"entk/internal/workload"
)

type check struct {
	name  string
	title string // heads the table under -print
	run   func() (table string, err error)
}

// checked renders a runner's result and applies its own shape check.
func checked[R interface {
	Table() string
	Check() error
}](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Table(), res.Check()
}

func main() {
	printTables := flag.Bool("print", false, "print each experiment's table after its ok line")
	flag.Parse()

	var fig3 *workload.Fig3Result

	checks := []check{
		{"fig3 pattern characterisation", "Figure 3: pattern characterisation, mkfile/ccount on Comet (tasks = cores)", func() (string, error) {
			res, err := workload.Fig3(nil)
			fig3 = res
			return checked(res, err)
		}},
		{"fig4 kernel-plugin invariance", "Figure 4: kernel-plugin validation, Gromacs-LSDMap SAL on Comet", func() (string, error) {
			res, err := workload.Fig4(nil)
			if err != nil {
				return "", err
			}
			return res.Table(), res.Check(fig3)
		}},
		{"fig5 EE strong scaling", "Figure 5: EE strong scaling (2560 replicas, SuperMIC)", func() (string, error) {
			return checked(workload.Fig5(nil))
		}},
		{"fig6 EE weak scaling", "Figure 6: EE weak scaling (replicas = cores, SuperMIC)", func() (string, error) {
			return checked(workload.Fig6(nil))
		}},
		{"fig7 SAL strong scaling", "Figure 7: SAL strong scaling (1024 simulations, Stampede)", func() (string, error) {
			return checked(workload.Fig7(nil))
		}},
		{"fig8 SAL weak scaling", "Figure 8: SAL weak scaling (sims = cores, Stampede)", func() (string, error) {
			return checked(workload.Fig8(nil))
		}},
		{"fig9 MPI capability", "Figure 9: MPI capability (64 simulations, 1-64 cores/sim, Stampede)", func() (string, error) {
			return checked(workload.Fig9(nil))
		}},
		{"ablation exchange mode", "Ablation: collective vs pairwise exchange (heterogeneous EE)", func() (string, error) {
			return checked(workload.AblationExchangeMode())
		}},
		{"ablation batch backfill", "Ablation: batch policy FIFO vs EASY backfill (pilot startup)", func() (string, error) {
			return checked(workload.AblationBackfill())
		}},
		{"ablation dispatch cost", "Ablation: per-unit dispatch cost vs pattern overhead", func() (string, error) {
			return checked(workload.AblationDispatch())
		}},
		{"ablation agent placement", "Ablation: agent node packing first-fit vs best-fit", func() (string, error) {
			return checked(workload.AblationAgentScheduler())
		}},
	}

	failed := 0
	for _, c := range checks {
		table, err := c.run()
		if err != nil {
			fmt.Printf("FAIL  %-32s %v\n", c.name, err)
			failed++
			continue
		}
		fmt.Printf("ok    %s\n", c.name)
		if *printTables {
			fmt.Println(c.title)
			fmt.Println(table) // tables end in a newline: this leaves a blank line
		}
	}
	if failed > 0 {
		fmt.Printf("\n%d of %d checks failed\n", failed, len(checks))
		os.Exit(1)
	}
	if !*printTables {
		fmt.Println() // under -print the last table's blank line separates already
	}
	fmt.Printf("all %d checks passed\n", len(checks))
}
