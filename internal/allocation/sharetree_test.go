package allocation

import (
	"fmt"
	"slices"
	"testing"

	"lass/internal/fairshare"
)

// shareTreeUsers and shareTreeUserWeights are the pools FuzzShareTreeSpec
// draws a function's user and user weight from: the "" user and an
// explicit "::default" share one node, and non-positive user weights
// count as 1.
var (
	shareTreeUsers       = []string{"", "alice", "bob", "::default", "carol"}
	shareTreeUserWeights = []float64{-1, 0, 0.5, 1, 2, 3}
)

// shareTreeSite decodes fuzz bytes into a site's functions, four bytes
// each: user, user weight, function weight and desire.
func shareTreeSite(data []byte) []FunctionDemand {
	var fns []FunctionDemand
	for len(data) >= 4 && len(fns) < 64 {
		fns = append(fns, FunctionDemand{
			Name:       fmt.Sprintf("f%02d", len(fns)),
			User:       shareTreeUsers[int(data[0])%len(shareTreeUsers)],
			UserWeight: shareTreeUserWeights[int(data[1])%len(shareTreeUserWeights)],
			Weight:     0.5 * float64(1+data[2]%8),
			DesiredCPU: 125 * int64(data[3]),
		})
		data = data[4:]
	}
	return fns
}

// FuzzShareTreeSpec holds NewShareTree to its specification, node by
// node: leaf IDs and weights, user nodes in first-appearance order with
// their IDs and first-seen weights, each user's functions in position
// order, child lists that an append cannot spill into a neighbour's, and
// a division with capacity to spare that hands every function its desire.
func FuzzShareTreeSpec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 4})
	// alice, bob, alice, bob: users interleave.
	f.Add([]byte{1, 4, 1, 8, 2, 5, 2, 2, 1, 3, 3, 1, 2, 0, 0, 6})
	// "" then "::default": one node, weight 1 from the first.
	f.Add([]byte{0, 5, 1, 3, 3, 5, 2, 9, 0, 4, 0, 1})
	// Non-positive user weights first, a positive one later.
	f.Add([]byte{4, 0, 1, 2, 4, 5, 2, 2, 1, 1, 3, 0, 1, 4, 0, 7, 4, 3, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		const id = "site:s"
		fns := shareTreeSite(data)
		tree := NewShareTree(id, fns)
		root := tree.root
		if root.ID != id || root.Weight != 1 {
			t.Fatalf("root %q weight %v, want %q weight 1", root.ID, root.Weight, id)
		}
		if len(tree.leaves) != len(fns) {
			t.Fatalf("%d leaves for %d functions", len(tree.leaves), len(fns))
		}
		for j, fd := range fns {
			l := tree.leaves[j]
			if l.ID != id+"/"+fd.Name || l.Weight != fd.Weight || !l.Leaf() {
				t.Fatalf("function %d: leaf %q weight %v, want %q weight %v", j, l.ID, l.Weight, id+"/"+fd.Name, fd.Weight)
			}
		}

		// The specification, computed directly: users in order of first
		// appearance, the first weight seen for each, and their members.
		var users []string
		weight := map[string]float64{}
		members := map[string][]int{}
		for j, fd := range fns {
			user, uw := fd.User, fd.UserWeight
			if user == "" {
				user, uw = "::default", 1
			}
			if _, ok := weight[user]; !ok {
				if uw <= 0 {
					uw = 1
				}
				users = append(users, user)
				weight[user] = uw
			}
			members[user] = append(members[user], j)
		}
		if len(root.Children) != len(users) {
			t.Fatalf("%d user nodes, want %d", len(root.Children), len(users))
		}
		var order []int
		for u, user := range users {
			un := root.Children[u]
			if un.ID != id+"/user:"+user || un.Weight != weight[user] {
				t.Fatalf("user node %d: %q weight %v, want %q weight %v", u, un.ID, un.Weight, id+"/user:"+user, weight[user])
			}
			if len(un.Children) != len(members[user]) {
				t.Fatalf("user %q: %d children, want %d", user, len(un.Children), len(members[user]))
			}
			for k, j := range members[user] {
				if un.Children[k] != tree.leaves[j] {
					t.Fatalf("user %q: child %d is %q, want function %d's leaf", user, k, un.Children[k].ID, j)
				}
			}
			order = append(order, members[user]...)
		}
		if !slices.Equal(tree.order, order) {
			t.Fatalf("preorder %v, want %v", tree.order, order)
		}

		// Appending to any node's child list leaves every other list, and
		// the leaves by position, as they were.
		internal := append([]*fairshare.Node{root}, root.Children...)
		snapshot := func() [][]*fairshare.Node {
			var lists [][]*fairshare.Node
			for _, n := range internal {
				lists = append(lists, slices.Clone(n.Children))
			}
			return append(lists, slices.Clone(tree.leaves))
		}
		before := snapshot()
		extra := &fairshare.Node{ID: "extra", Weight: 1}
		for x, n := range internal {
			grown := append(n.Children, extra)
			if after := snapshot(); !slices.EqualFunc(before, after, slices.Equal) {
				t.Fatalf("appending to node %q's children changed another node's", n.ID)
			}
			if grown[len(grown)-1] != extra || len(grown) != len(before[x])+1 {
				t.Fatalf("append to node %q lost its element", n.ID)
			}
		}

		// No pressure: every function gets its desire.
		desire := make([]int64, len(fns))
		var total int64
		for j, fd := range fns {
			desire[j] = fd.DesiredCPU
			total += fd.DesiredCPU
		}
		got := make([]int64, len(fns))
		for _, capped := range []bool{false, true} {
			for _, capacity := range []int64{total, total + 1000} {
				if err := tree.Divide(new(fairshare.Scratch), desire, capacity, capped, got); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, desire) {
					t.Fatalf("capacity %d (desire %d) capped=%v: got %v, want %v", capacity, total, capped, got, desire)
				}
			}
		}
	})
}
