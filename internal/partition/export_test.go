package partition

import "xpro/internal/wireless"

// Exports for the external differential battery (differential_test.go),
// which needs the systems of internal/xsystem for its delay models.

// LambdaLadder is the generator's sweep of Lagrangian weights.
var LambdaLadder = lambdaLadder

// The reference pricing of reference_test.go.
func (pr *Problem) RefSensorEnergy(p Placement) float64 { return pr.refSensorEnergy(p) }
func (pr *Problem) RefMinCut() (Placement, float64)     { return pr.refMinCut() }
func (pr *Problem) RefCut(lambda float64) Placement     { return pr.refCut(lambda) }
func (pr *Problem) RefGenerate(delayOf func(Placement) float64, limit float64) (Result, error) {
	return pr.refGenerate(delayOf, limit)
}
func (pr *Problem) RefFrontier(delayOf func(Placement) float64) []FrontierPoint {
	return pr.refFrontier(delayOf)
}

// Cut solves the graph at link and lambda and returns a copy of the cut.
func (cg *CutGraph) Cut(link wireless.Model, lambda float64) Placement {
	return append(Placement(nil), cg.cut(link, lambda)...)
}
