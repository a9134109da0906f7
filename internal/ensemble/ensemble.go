// Package ensemble implements XPro's random-subspace classifier (§2.1,
// §4.4): an ensemble of base SVMs, each trained on a random subset of the
// statistical feature space, fused by a weighted voting scheme whose
// weights are trained with least squares.
//
// The feature space is the cross product of signal domains and the eight
// statistical features: the time domain plus the bands of a 5-level DWT
// (details of levels 1–5 and the final approximation — lengths
// 64/32/16/8/4/4 for the padded 128-sample DWT input). That yields
// 7 × 8 = 56 candidate features; each base classifier samples 12 of them
// (§4.4). Only the features some selected base classifier actually uses
// become functional cells ("the number of functional cells is decided by
// the feature set and random subspace training", §2.2).
package ensemble

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"xpro/internal/biosig"
	"xpro/internal/dwt"
	"xpro/internal/linalg"
	"xpro/internal/stats"
	"xpro/internal/svm"
)

// DWTInputLen is the padded segment length feeding the DWT chain (§4.4:
// 5 levels with band lengths 64/32/16/8/4).
const DWTInputLen = 128

// DWTLevels is the decomposition depth.
const DWTLevels = 5

// NumDomains is time domain + 5 detail bands + 1 approximation band.
const NumDomains = 2 + DWTLevels

// TimeDomain is the domain index of the raw time-domain segment; DWT
// bands use domains 1..NumDomains−1 (details 1–5 then approximation).
const TimeDomain = 0

// FeatureSpec identifies one feature in the cross-product space.
type FeatureSpec struct {
	Domain int // TimeDomain or 1..NumDomains-1
	Feat   stats.Feature
}

// String returns e.g. "time/Max" or "dwt3/Kurt".
func (fs FeatureSpec) String() string {
	return fmt.Sprintf("%s/%s", DomainName(fs.Domain), fs.Feat)
}

// DomainName names a domain index: "time", "dwt1".."dwt5", "dwtA".
func DomainName(d int) string {
	switch {
	case d == TimeDomain:
		return "time"
	case d >= 1 && d <= DWTLevels:
		return fmt.Sprintf("dwt%d", d)
	case d == DWTLevels+1:
		return "dwtA"
	default:
		return fmt.Sprintf("domain%d", d)
	}
}

// AllFeatureSpecs enumerates the full 56-feature space in canonical
// order (domain-major).
func AllFeatureSpecs() []FeatureSpec {
	specs := make([]FeatureSpec, 0, NumDomains*stats.NumFeatures)
	for d := 0; d < NumDomains; d++ {
		for _, f := range stats.AllFeatures {
			specs = append(specs, FeatureSpec{Domain: d, Feat: f})
		}
	}
	return specs
}

// SpecIndex returns the canonical index of fs in AllFeatureSpecs.
func SpecIndex(fs FeatureSpec) int { return fs.Domain*stats.NumFeatures + int(fs.Feat) }

// ExtractVector computes the full 56-dimensional feature vector of a
// segment: all 8 features on the raw samples, then on each DWT band of
// the 128-padded segment.
func ExtractVector(seg biosig.Segment) ([]float64, error) {
	out := make([]float64, NumDomains*stats.NumFeatures)
	copy(out, stats.ComputeAll(seg.Samples))
	padded := seg.PadTo(DWTInputLen)
	dec, err := dwt.Decompose(dwt.Haar, padded, DWTLevels)
	if err != nil {
		return nil, fmt.Errorf("ensemble: extracting DWT features: %w", err)
	}
	for b := 0; b < dec.NumBands(); b++ {
		fv := stats.ComputeAll(dec.Band(b))
		copy(out[(b+1)*stats.NumFeatures:], fv)
	}
	return out, nil
}

// ExtractDataset computes feature vectors and ±1 labels for every
// segment of d.
func ExtractDataset(d *biosig.Dataset) (x [][]float64, y []int, err error) {
	x = make([][]float64, len(d.Segs))
	y = make([]int, len(d.Segs))
	for i, seg := range d.Segs {
		x[i], err = ExtractVector(seg)
		if err != nil {
			return nil, nil, err
		}
		if seg.Label == 1 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return x, y, nil
}

// Config controls ensemble training. The zero value is unusable; use
// DefaultConfig (the paper's protocol scaled to run in seconds) or
// PaperConfig (the full §4.4 protocol).
type Config struct {
	// Candidates is the number of random-subspace base classifiers
	// trained before selection (paper: 100).
	Candidates int
	// SubspaceSize is the number of features per base classifier
	// (paper: 12).
	SubspaceSize int
	// TopFrac selects the best-accuracy fraction of candidates as the
	// final base classifiers (paper: 0.1).
	TopFrac float64
	// Folds is the cross-validation fold count used to score candidates
	// (paper: 10).
	Folds int
	// CandidateTrainCap subsamples SVM training sets (candidate folds
	// and the final retrain) to at most this many rows, bounding both
	// SMO cost and support-vector counts — wearable base classifiers
	// must stay small ("some basic SVM classifiers have fewer
	// supporting vectors", §5.5). 0 means no cap.
	CandidateTrainCap int
	// SVM configures the base classifiers (paper: RBF kernel).
	SVM svm.Params
	// Ridge is the least-squares regularization for fusion weights.
	Ridge float64
	// Seed drives subset sampling and fold shuffling.
	Seed int64
}

// DefaultConfig returns a configuration that follows the paper's
// protocol with the candidate pool scaled down (24 candidates instead of
// 100, 4-fold instead of 10-fold scoring) so a full six-case evaluation
// runs in seconds. The selected ensemble still has ~paper-sized
// membership because TopFrac is raised to keep 10 base classifiers... see
// PaperConfig for the exact protocol.
func DefaultConfig(seed int64) Config {
	return Config{
		Candidates:        24,
		SubspaceSize:      12,
		TopFrac:           0.25, // 24 × 0.25 = 6 base classifiers
		Folds:             4,
		CandidateTrainCap: 240,
		// Gamma ≈ 1 suits the normalized [0,1] feature cube, where
		// squared subspace distances are O(1).
		SVM:   svm.Params{Kernel: svm.RBF, C: 4, Gamma: 1, Seed: seed},
		Ridge: 1e-3,
		Seed:  seed,
	}
}

// PaperConfig returns the full §4.4 protocol: 100 candidates on random
// 12-feature subsets, top 10% selected, 10-fold cross-validation.
func PaperConfig(seed int64) Config {
	return Config{
		Candidates:   100,
		SubspaceSize: 12,
		TopFrac:      0.1,
		Folds:        10,
		SVM:          svm.Params{Kernel: svm.RBF, C: 4, Gamma: 1, Seed: seed},
		Ridge:        1e-3,
		Seed:         seed,
	}
}

// Range is the training-set normalization of one feature (§4.4: "All
// the statistical features are normalized to range [0, 1]"): the
// normalized value is (raw − Min) · Scale, clamped to [0, 1]. A
// degenerate (constant) feature has Scale 0 and normalizes to 0.
type Range struct {
	Min   float64
	Scale float64
}

// Apply normalizes one raw feature value.
func (r Range) Apply(v float64) float64 {
	n := (v - r.Min) * r.Scale
	if n < 0 {
		return 0
	}
	if n > 1 {
		return 1
	}
	return n
}

// Invert recovers the raw value from a normalized one (degenerate
// ranges return Min).
func (r Range) Invert(n float64) float64 {
	if r.Scale == 0 {
		return r.Min
	}
	return n/r.Scale + r.Min
}

// fitRanges computes per-feature normalization from training vectors.
func fitRanges(x [][]float64) []Range {
	if len(x) == 0 {
		return nil
	}
	dim := len(x[0])
	ranges := make([]Range, dim)
	for j := 0; j < dim; j++ {
		lo, hi := x[0][j], x[0][j]
		for _, row := range x {
			if row[j] < lo {
				lo = row[j]
			}
			if row[j] > hi {
				hi = row[j]
			}
		}
		ranges[j].Min = lo
		if hi > lo {
			ranges[j].Scale = 1 / (hi - lo)
		}
	}
	return ranges
}

// Base is one selected base classifier.
type Base struct {
	Model  *svm.Model
	Subset []FeatureSpec // the features this base consumes
	// CVAccuracy is the candidate's cross-validation score.
	CVAccuracy float64
}

// project extracts the subset columns from a full feature vector.
func project(full []float64, subset []FeatureSpec) []float64 {
	out := make([]float64, len(subset))
	for i, fs := range subset {
		out[i] = full[SpecIndex(fs)]
	}
	return out
}

// Ensemble is a trained random-subspace classifier.
type Ensemble struct {
	Bases   []Base
	Weights []float64 // fusion weights, len = len(Bases)+1 (last = bias)
	// Norm is the per-feature [0,1] normalization fitted on the
	// training set (§4.4), indexed like AllFeatureSpecs.
	Norm []Range
}

// Normalize maps a raw full feature vector into [0,1]^dim using the
// training-set ranges.
func (e *Ensemble) Normalize(full []float64) []float64 {
	out := make([]float64, len(full))
	for i, v := range full {
		out[i] = e.Norm[i].Apply(v)
	}
	return out
}

// FeatureRange returns the normalization of one feature.
func (e *Ensemble) FeatureRange(fs FeatureSpec) Range { return e.Norm[SpecIndex(fs)] }

// Validate checks the shape an ensemble read from outside the program
// must have before a topology is built on it and events are scored:
// at least one base, one fusion weight per base plus the bias, one
// normalization range per feature, and for every base a model of a
// known kernel over a non-empty subset of known features, whose weight
// vector and support vectors match the subset and whose coefficients
// match its support vectors.
func (e *Ensemble) Validate() error {
	if len(e.Bases) == 0 {
		return errors.New("ensemble: no base classifiers")
	}
	if len(e.Weights) != len(e.Bases)+1 {
		return fmt.Errorf("ensemble: %d fusion weights for %d bases, want %d", len(e.Weights), len(e.Bases), len(e.Bases)+1)
	}
	if n := NumDomains * stats.NumFeatures; len(e.Norm) != n {
		return fmt.Errorf("ensemble: %d normalization ranges, want %d", len(e.Norm), n)
	}
	for i, b := range e.Bases {
		m, dim := b.Model, len(b.Subset)
		switch {
		case m == nil:
			return fmt.Errorf("ensemble: base %d has no model", i)
		case dim == 0:
			return fmt.Errorf("ensemble: base %d has no features", i)
		case m.Kernel != svm.Linear && m.Kernel != svm.RBF:
			return fmt.Errorf("ensemble: base %d has unknown kernel %d", i, int(m.Kernel))
		case m.W != nil && len(m.W) != dim:
			return fmt.Errorf("ensemble: base %d weighs %d features, its subset has %d", i, len(m.W), dim)
		case len(m.Coeffs) != len(m.Vectors):
			return fmt.Errorf("ensemble: base %d has %d coefficients for %d support vectors", i, len(m.Coeffs), len(m.Vectors))
		}
		for _, fs := range b.Subset {
			if fs.Domain < 0 || fs.Domain >= NumDomains || fs.Feat < 0 || int(fs.Feat) >= stats.NumFeatures {
				return fmt.Errorf("ensemble: base %d uses unknown feature (domain %d, feature %d)", i, fs.Domain, int(fs.Feat))
			}
		}
		for _, v := range m.Vectors {
			if len(v) != dim {
				return fmt.Errorf("ensemble: base %d has a %d-dimensional support vector for %d features", i, len(v), dim)
			}
		}
	}
	return nil
}

// ErrTooFewSegments reports a dataset too small to train on.
var ErrTooFewSegments = errors.New("ensemble: dataset too small to train")

// Train fits a random-subspace ensemble on train data per cfg.
func Train(train *biosig.Dataset, cfg Config) (*Ensemble, error) {
	if cfg.Candidates < 1 || cfg.SubspaceSize < 1 {
		return nil, fmt.Errorf("ensemble: config needs ≥1 candidate and subspace size (got %d, %d)", cfg.Candidates, cfg.SubspaceSize)
	}
	if len(train.Segs) < 4*cfg.Folds {
		return nil, ErrTooFewSegments
	}
	x, y, err := ExtractDataset(train)
	if err != nil {
		return nil, err
	}
	// Fit and apply the §4.4 feature normalization before any training.
	norm := fitRanges(x)
	for i, row := range x {
		nr := make([]float64, len(row))
		for j, v := range row {
			nr[j] = norm[j].Apply(v)
		}
		x[i] = nr
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := AllFeatureSpecs()

	// Fold assignment for candidate scoring.
	folds := cfg.Folds
	if folds < 2 {
		folds = 2
	}
	foldOf := make([]int, len(x))
	for i, p := range rng.Perm(len(x)) {
		foldOf[p] = i % folds
	}

	type cand struct {
		subset []FeatureSpec
		score  float64
		seed   int64
	}
	cands := make([]cand, 0, cfg.Candidates)
	for c := 0; c < cfg.Candidates; c++ {
		// Random 12-feature subset, sampled without replacement.
		perm := rng.Perm(len(specs))
		subset := make([]FeatureSpec, cfg.SubspaceSize)
		for i := range subset {
			subset[i] = specs[perm[i]]
		}
		seed := rng.Int63()
		// Cross-validated accuracy: train on folds ≠ f, score on fold f.
		correct, total := 0, 0
		for f := 0; f < folds; f++ {
			var xt [][]float64
			var yt []int
			for i := range x {
				if foldOf[i] != f {
					xt = append(xt, project(x[i], subset))
					yt = append(yt, y[i])
				}
			}
			if cfg.CandidateTrainCap > 0 && len(xt) > cfg.CandidateTrainCap {
				xt, yt = subsample(xt, yt, cfg.CandidateTrainCap, rng)
			}
			p := cfg.SVM
			p.Seed = seed + int64(f)
			m, err := svm.Train(xt, yt, p)
			if err != nil {
				continue // degenerate fold; candidate scores 0 on it
			}
			for i := range x {
				if foldOf[i] == f {
					if m.Predict(project(x[i], subset)) == y[i] {
						correct++
					}
					total++
				}
			}
		}
		score := 0.0
		if total > 0 {
			score = float64(correct) / float64(total)
		}
		cands = append(cands, cand{subset: subset, score: score, seed: seed})
	}

	// Keep the top fraction by CV accuracy.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	keep := int(math.Round(cfg.TopFrac * float64(len(cands))))
	if keep < 1 {
		keep = 1
	}
	if keep > len(cands) {
		keep = len(cands)
	}

	ens := &Ensemble{Norm: norm}
	for _, c := range cands[:keep] {
		// Retrain the selected base on the (capped) training set.
		xt := make([][]float64, len(x))
		for i := range x {
			xt[i] = project(x[i], c.subset)
		}
		yt := y
		if cfg.CandidateTrainCap > 0 && len(xt) > cfg.CandidateTrainCap {
			capRng := rand.New(rand.NewSource(c.seed))
			xt, yt = subsample(xt, yt, cfg.CandidateTrainCap, capRng)
		}
		p := cfg.SVM
		p.Seed = c.seed
		m, err := svm.Train(xt, yt, p)
		if err != nil {
			continue
		}
		ens.Bases = append(ens.Bases, Base{Model: m, Subset: c.subset, CVAccuracy: c.score})
	}
	if len(ens.Bases) == 0 {
		return nil, errors.New("ensemble: no base classifier could be trained")
	}

	// Fusion: least-squares weighted voting on the base votes (§4.4).
	votes := linalg.NewMatrix(len(x), len(ens.Bases)+1)
	target := make([]float64, len(x))
	for i := range x {
		for b, base := range ens.Bases {
			votes.Set(i, b, float64(base.Model.Predict(project(x[i], base.Subset))))
		}
		votes.Set(i, len(ens.Bases), 1) // bias column
		target[i] = float64(y[i])
	}
	w, err := linalg.LeastSquares(votes, target, cfg.Ridge)
	if err != nil {
		// Fall back to uniform voting.
		w = make([]float64, len(ens.Bases)+1)
		for i := range ens.Bases {
			w[i] = 1 / float64(len(ens.Bases))
		}
	}
	ens.Weights = w
	return ens, nil
}

func subsample(x [][]float64, y []int, n int, rng *rand.Rand) ([][]float64, []int) {
	idx := rng.Perm(len(x))[:n]
	xs := make([][]float64, n)
	ys := make([]int, n)
	for i, j := range idx {
		xs[i], ys[i] = x[j], y[j]
	}
	return xs, ys
}

// Score returns the fused real-valued score for a RAW full feature
// vector (positive → class 1). The vector is normalized with the
// training-set ranges before the base classifiers see it.
func (e *Ensemble) Score(full []float64) float64 {
	n := e.Normalize(full)
	s := e.Weights[len(e.Bases)] // bias
	for b, base := range e.Bases {
		s += e.Weights[b] * float64(base.Model.Predict(project(n, base.Subset)))
	}
	return s
}

// ScoreSoft returns a continuous fused score: base votes are replaced by
// their clamped decision values, preserving margin information. The
// binary classifier thresholds hard votes (Score); one-vs-rest argmax
// across heads needs the soft variant — with ~6 bases, hard-vote scores
// take too few distinct values to break ties meaningfully.
func (e *Ensemble) ScoreSoft(full []float64) float64 {
	n := e.Normalize(full)
	s := e.Weights[len(e.Bases)]
	for b, base := range e.Bases {
		d := base.Model.Decision(project(n, base.Subset))
		if d > 1 {
			d = 1
		} else if d < -1 {
			d = -1
		}
		s += e.Weights[b] * d
	}
	return s
}

// Predict classifies a segment (0 or 1).
func (e *Ensemble) Predict(seg biosig.Segment) (int, error) {
	full, err := ExtractVector(seg)
	if err != nil {
		return 0, err
	}
	if e.Score(full) >= 0 {
		return 1, nil
	}
	return 0, nil
}

// Accuracy evaluates e on a dataset.
func (e *Ensemble) Accuracy(d *biosig.Dataset) (float64, error) {
	if len(d.Segs) == 0 {
		return 0, errors.New("ensemble: empty evaluation set")
	}
	correct := 0
	for _, seg := range d.Segs {
		p, err := e.Predict(seg)
		if err != nil {
			return 0, err
		}
		if p == seg.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(d.Segs)), nil
}

// Pruned returns a copy of the ensemble whose base SVMs keep only the
// given fraction of their largest-coefficient support vectors (see
// svm.Model.Prune). Fusion weights and normalization are unchanged; the
// smaller models shrink the in-sensor SVM cells proportionally.
func (e *Ensemble) Pruned(keepFrac float64) (*Ensemble, error) {
	out := &Ensemble{Weights: e.Weights, Norm: e.Norm}
	for _, b := range e.Bases {
		m, err := b.Model.Prune(keepFrac)
		if err != nil {
			return nil, err
		}
		out.Bases = append(out.Bases, Base{Model: m, Subset: b.Subset, CVAccuracy: b.CVAccuracy})
	}
	return out, nil
}

// UsedFeatures returns the union of all base subsets in canonical order —
// the features that become functional cells.
func (e *Ensemble) UsedFeatures() []FeatureSpec {
	seen := make(map[FeatureSpec]bool)
	for _, b := range e.Bases {
		for _, fs := range b.Subset {
			seen[fs] = true
		}
	}
	var out []FeatureSpec
	for _, fs := range AllFeatureSpecs() {
		if seen[fs] {
			out = append(out, fs)
		}
	}
	return out
}

// UsedDomains returns the set of domains referenced by UsedFeatures.
func (e *Ensemble) UsedDomains() []int {
	seen := make(map[int]bool)
	for _, fs := range e.UsedFeatures() {
		seen[fs.Domain] = true
	}
	var out []int
	for d := 0; d < NumDomains; d++ {
		if seen[d] {
			out = append(out, d)
		}
	}
	return out
}
