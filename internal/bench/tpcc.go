package bench

import "math"

// TPCCParams parameterizes the closed-form remote-transaction analysis of
// TPC-C (§8, "Locality in workloads"). Under the TPC-C specification only
// new-order and payment transactions may access a remote warehouse:
//
//   - each of the ~10 items in a new-order is supplied by a remote
//     warehouse with probability 1 %;
//   - a payment pays through a remote warehouse/district with
//     probability 15 %.
//
// A "remote warehouse" only leaves the node when it is hosted elsewhere;
// with W warehouses per node out of W×N total, that conditional probability
// is (N-1)·W / (N·W - 1).
type TPCCParams struct {
	// Mix fractions (spec defaults).
	NewOrderFrac float64
	PaymentFrac  float64
	// ItemsPerOrder is the average new-order line count.
	ItemsPerOrder int
	// RemoteItemProb is the per-item remote-supply probability.
	RemoteItemProb float64
	// RemotePaymentProb is the remote-customer probability for payments.
	RemotePaymentProb float64
	// WarehousesPerNode and Nodes fix the placement.
	WarehousesPerNode int
	Nodes             int
}

// DefaultTPCCParams returns the spec mix on a six-node deployment.
func DefaultTPCCParams(nodes int) TPCCParams {
	return TPCCParams{
		NewOrderFrac:      0.45,
		PaymentFrac:       0.43,
		ItemsPerOrder:     10,
		RemoteItemProb:    0.01,
		RemotePaymentProb: 0.15,
		WarehousesPerNode: 16,
		Nodes:             nodes,
	}
}

// CrossNodeProb is the probability that a spec-level "remote warehouse"
// pick lands on another node.
func (p TPCCParams) CrossNodeProb() float64 {
	w := float64(p.WarehousesPerNode)
	n := float64(p.Nodes)
	if n <= 1 || w*n <= 1 {
		return 0
	}
	return (n - 1) * w / (n*w - 1)
}

// RemoteFraction computes the fraction of transactions touching another
// node:
//
//	f = f_no·(1-(1-p_item·x)^k) + f_pay·p_cust·x,  x = CrossNodeProb.
//
// With the spec mix this yields ≈9–10 % — noticeably above the 2.45 % the
// paper reports, which implies additional colocation assumptions the paper
// does not spell out. PaperCalibrated applies the implied correction.
func (p TPCCParams) RemoteFraction() float64 {
	x := p.CrossNodeProb()
	noRemote := 1 - math.Pow(1-p.RemoteItemProb*x, float64(p.ItemsPerOrder))
	return p.NewOrderFrac*noRemote + p.PaymentFrac*p.RemotePaymentProb*x
}

// PaperCalibrated returns the parameters with the cross-node probability
// scaled so the formula reproduces the paper's 2.45 % headline: solving
// 0.45·(1-(1-0.01x)^10) + 0.43·0.15x = 0.0245 gives x ≈ 0.224, i.e. the
// paper effectively assumes ~78 % of spec-level remote picks stay on-node
// (districts/customers colocated with their home warehouse's node).
func (p TPCCParams) PaperCalibrated() float64 {
	const x = 0.224
	noRemote := 1 - math.Pow(1-p.RemoteItemProb*x, float64(p.ItemsPerOrder))
	return p.NewOrderFrac*noRemote + p.PaymentFrac*p.RemotePaymentProb*x
}
