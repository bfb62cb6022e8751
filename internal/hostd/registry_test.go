package hostd

import (
	"strings"
	"testing"
)

// TestRegistry drives the bounded insertion-ordered map through scripts of
// "+k" (put), "-k" (delete) and "?k" (get, must hit) / "!k" (get, must
// miss) steps. Upper-case keys are pinned: mayEvict refuses them.
func TestRegistry(t *testing.T) {
	mayEvict := func(v string) bool { return v != strings.ToUpper(v) }
	for _, tc := range []struct {
		name    string
		max     int
		script  string
		order   string // final keys, oldest first
		evicted string // every evicted value, in eviction order
	}{
		{"under the bound nothing is evicted", 3, "+a +b +c ?a ?b ?c", "a b c", ""},
		{"the oldest goes first", 2, "+a +b +c +d !a !b ?c ?d", "c d", "a b"},
		{"delete frees the slot", 2, "+a +b -a +c ?b ?c", "b c", ""},
		{"delete then re-put holds one slot", 2, "+k -k +k +b ?k ?b", "k b", ""},
		{"a re-put key is as new as its last put", 2, "+k -k +b +k +c !b ?k ?c", "k c", "b"},
		{"deleting an absent key is a no-op", 2, "+a -x +b ?a ?b", "a b", ""},
		{"a pinned entry is skipped for the next oldest", 2, "+A +b +c ?A !b ?c", "A c", "b"},
		{"all pinned overshoots", 2, "+A +B +C ?A ?B ?C", "A B C", ""},
		{"overshoot is repaid once entries are evictable", 2, "+A +B +c +d +e", "A B e", "c d"},
		{"the newest is never its own victim", 1, "+A +b ?b", "A b", ""},
		{"delete in the middle keeps the order", 4, "+a +b +c -b +d", "a c d", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRegistry[string](tc.max)
			var evicted []string
			for _, step := range strings.Fields(tc.script) {
				key := step[1:]
				switch step[0] {
				case '+':
					evicted = append(evicted, r.put(key, key, mayEvict)...)
				case '-':
					r.delete(key)
				case '?', '!':
					if v, ok := r.get(key); ok != (step[0] == '?') || ok && v != key {
						t.Fatalf("after %q: get(%q) = %q, %v", step, key, v, ok)
					}
				}
				if r.len() != len(r.m) {
					t.Fatalf("after %q: %d order slots for %d keys", step, r.len(), len(r.m))
				}
			}
			var order []string
			r.each(func(k, v string) {
				if k != v {
					t.Errorf("each(%q) carries value %q", k, v)
				}
				order = append(order, k)
			})
			if got := strings.Join(order, " "); got != tc.order {
				t.Errorf("order %q, want %q", got, tc.order)
			}
			if got := strings.Join(evicted, " "); got != tc.evicted {
				t.Errorf("evicted %q, want %q", got, tc.evicted)
			}
		})
	}
}
