package iosim

import "container/list"

// LRU is the buffer pool the disk baselines read through, so that what
// Figure 11 compares is three representations under one buffer manager:
// entries keyed by page, block or chunk number, each charged a cost
// against one budget (bytes, or 1 an entry for a pool counted in
// frames), the least recently used evicted until a new entry fits. An
// entry that costs more than the whole budget is held alone. Not safe
// for concurrent use: the caller that needs a lock holds it across the
// miss I/O too.
type LRU[V any] struct {
	budget, used int64
	order        list.List // front is the most recently used
	byKey        map[int64]*list.Element
}

type lruEntry[V any] struct {
	key, cost int64
	val       V
}

// NewLRU returns an empty pool that holds entries up to budget in cost.
func NewLRU[V any](budget int64) *LRU[V] {
	return &LRU[V]{budget: budget, byKey: map[int64]*list.Element{}}
}

// Get returns the entry under key and marks it most recently used.
func (c *LRU[V]) Get(key int64) (v V, ok bool) {
	el, ok := c.byKey[key]
	if !ok {
		return v, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put evicts from the least recently used end until cost fits, then
// adds the entry as the most recently used. key must not be held.
func (c *LRU[V]) Put(key int64, v V, cost int64) {
	for c.used+cost > c.budget && c.order.Len() > 0 {
		e := c.order.Remove(c.order.Back()).(*lruEntry[V])
		delete(c.byKey, e.key)
		c.used -= e.cost
	}
	c.byKey[key] = c.order.PushFront(&lruEntry[V]{key, cost, v})
	c.used += cost
}

// Reset empties the pool and sets its budget.
func (c *LRU[V]) Reset(budget int64) {
	c.budget, c.used = budget, 0
	c.order.Init()
	c.byKey = map[int64]*list.Element{}
}
