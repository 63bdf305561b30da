package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// realTol is the relative tolerance for REAL output.  Global reductions
// fold per-process partials in pid order, so a sum's last digits
// legitimately depend on np (the dense checksum differs around its 14th
// significant digit between np=1 and np=2); 1e-9 allows that and
// nothing an actual arithmetic error would produce.
const realTol = 1e-9

// checkOutput compares a run's Print lines with the reference's, field
// by field: integers and text must match exactly, reals within realTol.
func checkOutput(got, want string) error {
	gl := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wl := strings.Split(strings.TrimRight(want, "\n"), "\n")
	if len(gl) != len(wl) {
		return fmt.Errorf("output has %d lines, reference %d:\n%s", len(gl), len(wl), got)
	}
	for i := range wl {
		gf, wf := strings.Fields(gl[i]), strings.Fields(wl[i])
		if len(gf) != len(wf) {
			return fmt.Errorf("line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
		for j := range wf {
			if !fieldMatches(gf[j], wf[j]) {
				return fmt.Errorf("line %d field %d: got %q, want %q", i+1, j+1, gf[j], wf[j])
			}
		}
	}
	return nil
}

func fieldMatches(got, want string) bool {
	if got == want {
		return true
	}
	if !strings.ContainsAny(want, ".eE") {
		return false // integers and text are exact
	}
	g, err1 := strconv.ParseFloat(got, 64)
	w, err2 := strconv.ParseFloat(want, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	return math.Abs(g-w) <= realTol*math.Max(math.Abs(w), 1e-300)
}
