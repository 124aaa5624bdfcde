package webgraph

// Graph algorithms used by the "global access" mining tasks the paper
// motivates (§1.2): strongly connected components (for bow-tie style
// structure analysis) and BFS reachability. These run over fully
// decoded in-memory graphs, which is exactly the workload the S-Node
// compression enables.

// SCC computes strongly connected components with Tarjan's algorithm
// (iterative, so deep Web graphs do not overflow the goroutine stack).
// It returns a component ID per page (components numbered in reverse
// topological order of the condensation) and the component count.
func SCC(g *Graph) (comp []int32, nComp int) {
	n := g.NumPages()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []PageID // Tarjan's component stack
	var next int32     // next DFS index

	// Explicit DFS frames: vertex + position in its adjacency list.
	type frame struct {
		v   PageID
		idx int
	}
	var frames []frame

	for root := PageID(0); int(root) < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames = append(frames[:0], frame{root, 0})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			adj := g.Out(f.v)
			if f.idx < len(adj) {
				w := adj[f.idx]
				f.idx++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-order: pop the frame.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				// v is a component root.
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(nComp)
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	return comp, nComp
}

// BFS performs a breadth-first traversal from the given sources and
// returns the hop distance per page (-1 if unreachable).
func BFS(g *Graph, sources []PageID) []int32 {
	dist := make([]int32, g.NumPages())
	for i := range dist {
		dist[i] = -1
	}
	var queue []PageID
	for _, s := range sources {
		if dist[s] == -1 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Out(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}
