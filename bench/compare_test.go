package main

import "testing"

// series returns seeds 1..len(vs) mapped to vs.
func series(vs ...float64) map[int64]float64 {
	m := make(map[int64]float64, len(vs))
	for i, v := range vs {
		m[int64(i+1)] = v
	}
	return m
}

func TestJudgeVerdicts(t *testing.T) {
	parent := series(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name   string
		change map[int64]float64
		higher bool
		bound  float64
		want   string
	}{
		{"faster on every pair", series(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), false, 0.1, improved},
		{"within the bound", series(103, 104, 102, 103, 105, 101, 103, 104, 102, 103), false, 0.1, unchanged},
		{"worse beyond the bound", series(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), false, 0.1, regressed},
		{"higher is better, lower now", series(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), true, 0.1, regressed},
		{"higher is better, higher now", series(110, 111, 109, 110, 112, 108, 110, 111, 109, 110), true, 0.1, improved},
		// Wins 9 of 10 pairs, but the medians differ by less than the
		// parent's quartile spread: not a gain.
		{"small gain inside the spread", series(99, 100, 98, 99, 101, 97, 99, 100, 98, 101), false, 0.1, unchanged},
		// Too few pairs to claim a gain, however large.
		{"five pairs", series(50, 50, 50, 50, 50), false, 0.1, unchanged},
	} {
		if got := judge(parent, tc.change, tc.higher, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestJudgeSpreadWiderThanBound(t *testing.T) {
	noisy := series(50, 150, 80, 120, 60, 140, 90, 110, 70, 130)
	if got := judge(noisy, series(95, 155, 85, 125, 65, 145, 95, 115, 75, 135), false, 0.1).verdict; got != unresolved {
		t.Errorf("noisy parent: verdict %s, want unresolved", got)
	}
	// Every change run beating every parent run rules out a regression,
	// though a gain still needs the medians apart by more than the IQR.
	if got := judge(noisy, series(40, 41, 42, 43, 44, 45, 46, 47, 48, 49), false, 0.1).verdict; got != unchanged {
		t.Errorf("noisy parent, change better on every run: verdict %s, want unchanged", got)
	}
	if got := judge(noisy, series(10, 11, 12, 13, 14, 15, 16, 17, 18, 19), false, 0.1).verdict; got != improved {
		t.Errorf("noisy parent, change far better on every run: verdict %s, want improved", got)
	}
	if got := judge(noisy, series(40, 41, 42), false, 0.1).verdict; got != unchanged {
		t.Errorf("noisy parent, three better runs: verdict %s, want unchanged", got)
	}
}

func TestJudgeUnboundedMetric(t *testing.T) {
	parent := series(10, 10, 10, 10, 10, 10, 10, 10, 10, 10)
	if got := judge(parent, series(20, 20, 20, 20, 20, 20, 20, 20, 20, 20), false, 0).verdict; got != regressed {
		t.Errorf("per-layer count doubled: verdict %s, want regressed", got)
	}
	if got := judge(parent, series(10, 10, 10, 10, 10, 10, 10, 10, 10, 11), false, 0).verdict; got != unchanged {
		t.Errorf("per-layer count unchanged: verdict %s, want unchanged", got)
	}
}
