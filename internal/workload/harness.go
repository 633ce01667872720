// Package workload reproduces the paper's evaluation (Section IV): one
// runner per figure, each building the paper's workload, executing it on
// the simulated testbed through the toolkit, and returning the rows the
// figure plots. Check methods assert the qualitative shapes the paper
// reports, so regressions in the scaling behaviour fail loudly.
//
// The stress, mixed, oversubscribed, multi-pilot and fault tiers are test
// workloads: they live in this package's *_tier_test.go files, beside the
// tests that run them and compare their simulated columns with
// testdata/sim_columns.golden.json.
package workload

import (
	"fmt"
	"strings"
	"time"

	"entk/internal/core"
	"entk/internal/vclock"
)

// alanine dipeptide parameters used throughout the paper's experiments.
const (
	alanineAtoms = 2881
	eePS         = 6.0 // Figure 5/6: 6 ps per cycle
	salPS        = 0.6 // Figure 7/8: 0.6 ps per iteration
)

// Defaults per figure (the paper's sweep points).
var (
	Fig3Sizes = []int{24, 48, 96, 192}
	Fig4Sizes = []int{24, 48, 96, 192}
	Fig5Cores = []int{20, 40, 80, 160, 320, 640, 1280, 2560}
	Fig6Sizes = []int{20, 40, 80, 160, 320, 640, 1280, 2560}
	Fig7Cores = []int{64, 128, 256, 512, 1024}
	Fig8Sizes = []int{64, 128, 256, 512, 1024, 2048, 4096}
	Fig9CPS   = []int{1, 16, 32, 64} // cores per simulation
)

// runOnFreshClock executes one pattern on a dedicated virtual clock and
// resource handle, returning the report. Every experiment point runs in
// its own simulated world so points are independent and deterministic.
func runOnFreshClock(resource string, cores int, build func() core.Pattern) (*core.Report, error) {
	v := vclock.NewVirtual()
	h, err := core.NewResourceHandle(resource, cores, 10000*time.Hour, core.Config{Clock: v})
	if err != nil {
		return nil, err
	}
	var rep *core.Report
	v.Run(func() {
		rep, err = h.Execute(build())
	})
	return rep, err
}

// table renders rows of (header, lines) as a fixed-width text table.
func table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func di(x int) string     { return fmt.Sprintf("%d", x) }
