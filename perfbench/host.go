package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
)

// stealTicks is the host's cumulative steal time over all CPUs, in
// clock ticks, read from /proc/stat: time a runnable virtual CPU of
// this machine waited while the hypervisor ran other guests. It is 0
// where the file or the field does not exist.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// Sample is one timed operation and the host steal during it.
type Sample struct {
	V     float64
	Steal int64
}

// Calm keeps the samples that saw no host steal, or, when fewer than a
// quarter did, the quarter that saw the least. On a shared machine the
// hypervisor's other guests take the CPU in spells that stretch every
// timing caught in one; those spells are not the program's cost, and a
// run caught in one would otherwise read as a regression. Without
// steal, every sample is kept.
func Calm(samples []Sample) Dist {
	var d Dist
	for i, keep := range calmMask(samples) {
		if keep {
			d = append(d, samples[i].V)
		}
	}
	return d
}

// calmMask marks the samples Calm keeps.
func calmMask(samples []Sample) []bool {
	if len(samples) == 0 {
		return nil
	}
	steals := make([]int64, len(samples))
	for i, s := range samples {
		steals[i] = s.Steal
	}
	sort.Slice(steals, func(i, j int) bool { return steals[i] < steals[j] })
	limit := steals[(len(steals)+3)/4-1]
	mask := make([]bool, len(samples))
	for i, s := range samples {
		mask[i] = s.Steal <= limit
	}
	return mask
}

// All returns every sample's value.
func All(samples []Sample) Dist {
	d := make(Dist, len(samples))
	for i, s := range samples {
		d[i] = s.V
	}
	return d
}
