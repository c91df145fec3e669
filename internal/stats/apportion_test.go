package stats

import (
	"reflect"
	"testing"
)

// TestLargestRemainder pins the apportionment arithmetic shared by the
// VC-quota rebalancer and the serve dispatcher.
func TestLargestRemainder(t *testing.T) {
	cases := []struct {
		budget  int
		weights []int
		want    []int
	}{
		{8, []int{1, 1}, []int{4, 4}},
		{8, []int{3, 1}, []int{6, 2}},
		{7, []int{1, 1}, []int{4, 3}}, // remainder seat to the first tie
		{1, []int{1, 1}, []int{1, 0}}, // budget below tenant count
		{5, []int{2, 2, 1}, []int{2, 2, 1}},
		{3, []int{0, 5, 0}, []int{0, 3, 0}}, // zero demand gets nothing
		{4, []int{1, 2, 4}, []int{1, 1, 2}}, // 4/7, 8/7, 16/7: fraction .57 wins the seat
		{0, []int{1, 2}, []int{0, 0}},
		{4, []int{0, 0}, []int{0, 0}},
		{4, nil, []int{}},
	}
	for _, tc := range cases {
		got := LargestRemainder(tc.budget, tc.weights)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("LargestRemainder(%d, %v) = %v, want %v", tc.budget, tc.weights, got, tc.want)
		}
	}
}
