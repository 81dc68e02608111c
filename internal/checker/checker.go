// Package checker verifies strict serializability of recorded transaction
// histories — the executable counterpart of the paper's TLA+ model checking
// (§8, "Formal verification").
//
// It exploits the fact that Zeus objects are versioned with consecutive
// integers: given each transaction's read set (object → version observed)
// and write set (object → version installed), the history is serializable
// iff the version-induced precedence graph is acyclic, and *strictly*
// serializable iff it stays acyclic after adding real-time edges (T1 → T2
// whenever T1 responded before T2 was invoked). Both conditions are exact,
// not heuristic, under the consecutive-version discipline.
//
// Precedence edges:
//
//	w→w: writer of (obj, v)   → writer of (obj, v+1)
//	w→r: writer of (obj, v)   → reader of (obj, v)
//	r→w: reader of (obj, v)   → writer of (obj, v+1)
//	rt : T1 → T2 when T1.End < T2.Start (through virtual nodes; see buildGraph)
package checker

import (
	"fmt"
	"sort"
)

// Access is one versioned object access.
type Access struct {
	Obj uint64
	Ver uint64
}

// Tx is one committed transaction's footprint.
type Tx struct {
	// ID is a unique transaction identifier (for reporting).
	ID int
	// Start and End bound the transaction in real time (any monotonic
	// unit; only comparisons matter).
	Start, End int64
	// Reads holds (object, version observed); Writes holds (object,
	// version installed). A read-modify-write appears in both.
	Reads  []Access
	Writes []Access
}

// Violation describes a failed check.
type Violation struct {
	Kind  string
	Cycle []int // transaction IDs forming a cycle, when applicable
	Msg   string
}

func (v *Violation) Error() string {
	if len(v.Cycle) > 0 {
		return fmt.Sprintf("checker: %s: cycle %v: %s", v.Kind, v.Cycle, v.Msg)
	}
	return fmt.Sprintf("checker: %s: %s", v.Kind, v.Msg)
}

// Check verifies strict serializability; nil means the history is strictly
// serializable.
func Check(txs []Tx) error {
	return check(txs, true, "strict-serializability", "no serial order consistent with versions and real time")
}

// CheckSerializable verifies plain serializability (ignores real time).
func CheckSerializable(txs []Tx) error {
	return check(txs, false, "serializability", "no serial order consistent with versions")
}

func check(txs []Tx, realTime bool, kind, msg string) error {
	writer, err := writers(txs)
	if err != nil {
		return err
	}
	if cyc := findCycle(buildGraph(txs, writer, realTime), txs); cyc != nil {
		return &Violation{Kind: kind, Cycle: cyc, Msg: msg}
	}
	return nil
}

// writers maps every installed version to the transaction that installed it,
// rejecting two transactions installing the same version.
func writers(txs []Tx) (map[Access]int, error) {
	writer := make(map[Access]int, len(txs))
	for i, t := range txs {
		for _, w := range t.Writes {
			if prev, dup := writer[w]; dup {
				return nil, &Violation{Kind: "duplicate-version",
					Msg: fmt.Sprintf("tx %d and tx %d both installed obj %d v%d",
						txs[prev].ID, t.ID, w.Obj, w.Ver)}
			}
			writer[w] = i
		}
	}
	return writer, nil
}

// buildGraph returns the precedence graph: nodes 0..n-1 are the transactions,
// and with real time n virtual nodes follow them.
func buildGraph(txs []Tx, writer map[Access]int, realTime bool) [][]int {
	n := len(txs)
	adj := make([][]int, n)
	add := func(a, b int) {
		if a != b {
			adj[a] = append(adj[a], b)
		}
	}
	for i, t := range txs {
		// w→w and r→w edges via version succession.
		for _, w := range t.Writes {
			if next, ok := writer[Access{w.Obj, w.Ver + 1}]; ok {
				add(i, next)
			}
		}
		for _, r := range t.Reads {
			// The read observed version r.Ver: order after its writer…
			if src, ok := writer[Access{r.Obj, r.Ver}]; ok {
				add(src, i)
			}
			// …and before the writer of the next version.
			if next, ok := writer[Access{r.Obj, r.Ver + 1}]; ok {
				add(i, next)
			}
		}
	}
	if realTime {
		// One virtual node per start position: node n+k is V_k, with V_k →
		// tx(order[k]) and V_k → V_{k+1}, so V_k reaches exactly the
		// transactions starting no earlier than order[k]. A transaction
		// points at V_k for the first k whose Start is after its End: it
		// reaches another in real time iff it ended before that one started
		// — exact, with O(n) edges, built in O(n log n).
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return txs[order[a]].Start < txs[order[b]].Start })
		virt := make([]int, 2*n) // the virtual nodes' edges, two apiece
		for k, i := range order {
			virt[2*k], virt[2*k+1] = i, n+k+1
			adj = append(adj, virt[2*k:2*k+2:2*k+2])
		}
		if n > 0 {
			adj[2*n-1] = adj[2*n-1][:1] // the last start position has no successor
		}
		for i, t := range txs {
			if k := sort.Search(n, func(k int) bool { return txs[order[k]].Start > t.End }); k < n {
				add(i, n+k)
			}
		}
	}
	return adj
}

// findCycle returns the IDs of a cycle's transactions (virtual nodes left
// out), or nil when the graph is acyclic. The search is iterative: a history
// of a million transactions is a path as deep as that.
func findCycle(adj [][]int, txs []Tx) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(adj))
	type frame struct{ u, next int }
	var stack []frame
	for root := range adj {
		if color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], frame{root, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == len(adj[f.u]) {
				color[f.u] = black
				stack = stack[:len(stack)-1]
				continue
			}
			v := adj[f.u][f.next]
			f.next++
			switch color[v] {
			case white:
				color[v] = gray
				stack = append(stack, frame{v, 0})
			case gray:
				// A back edge closes the cycle v → … → top of the stack → v.
				j := len(stack) - 1
				for stack[j].u != v {
					j--
				}
				var cycle []int
				for _, f := range stack[j:] {
					if f.u < len(txs) {
						cycle = append(cycle, txs[f.u].ID)
					}
				}
				return cycle
			}
		}
	}
	return nil
}
