package stats

import "sort"

// LargestRemainder apportions total seats across weights by the
// largest-remainder method: each weight gets floor(total·w/W) and the
// leftover seats go to the largest fractional remainders, ties in input
// order, so the result is a pure function of its inputs. Every share is 0
// when total or the weight sum is not positive.
func LargestRemainder(total int, weights []int) []int {
	sum := 0
	for _, w := range weights {
		sum += w
	}
	shares := make([]int, len(weights))
	if sum <= 0 || total <= 0 {
		return shares
	}
	type remainder struct {
		idx  int
		frac float64
	}
	rems := make([]remainder, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(total) * float64(w) / float64(sum)
		shares[i] = int(exact)
		assigned += shares[i]
		rems[i] = remainder{i, exact - float64(shares[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; k < total-assigned; k++ {
		shares[rems[k].idx]++
	}
	return shares
}
