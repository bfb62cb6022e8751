package hostd

// registry is a bounded, insertion-ordered map: the one shape behind both
// the installed-snapshot table and the idempotency store. It is not safe
// for concurrent use; Server.mu guards both instances.
type registry[V any] struct {
	max   int
	m     map[string]V
	order []string // keys of m, oldest first; exactly one slot per key
}

func newRegistry[V any](max int) *registry[V] {
	return &registry[V]{max: max, m: make(map[string]V)}
}

func (r *registry[V]) len() int { return len(r.order) }

func (r *registry[V]) get(key string) (V, bool) {
	v, ok := r.m[key]
	return v, ok
}

// put adds key, which must be absent, as the newest entry, then brings the
// registry back within its bound by evicting the oldest entries mayEvict
// accepts (never the one just added) and returns them. Entries mayEvict
// refuses stay, so the registry can overshoot until they become evictable.
func (r *registry[V]) put(key string, v V, mayEvict func(V) bool) (evicted []V) {
	r.m[key] = v
	r.order = append(r.order, key)
	for i := 0; len(r.order) > r.max && i < len(r.order)-1; {
		old := r.m[r.order[i]]
		if !mayEvict(old) {
			i++
			continue
		}
		evicted = append(evicted, old)
		r.removeAt(i)
	}
	return evicted
}

// delete removes key and its order slot; an absent key is a no-op.
func (r *registry[V]) delete(key string) {
	for i, k := range r.order {
		if k == key {
			r.removeAt(i)
			return
		}
	}
}

// removeAt drops slot i by moving the older slots up, so evicting the
// oldest entry (i == 0, the usual case) copies nothing.
func (r *registry[V]) removeAt(i int) {
	delete(r.m, r.order[i])
	copy(r.order[1:i+1], r.order[:i])
	r.order = r.order[1:]
}

// each calls f for every entry, oldest first.
func (r *registry[V]) each(f func(key string, v V)) {
	for _, k := range r.order {
		f(k, r.m[k])
	}
}
