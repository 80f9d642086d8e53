package vision

import "sov/internal/parallel"

// pathPool recycles the per-tile scanline path/prev cost rows of SGM
// aggregation.
var pathPool parallel.SlicePool[float32]

// Semi-global matching: per-pixel absolute-difference costs aggregated along
// four scanline directions with the classic P1/P2 smoothness penalties. It
// fills weakly-textured regions better than window matching at ~the same
// asymptotic cost — the production alternative the depth-estimation design
// space includes alongside the ELAS-style matcher (Table III).

// SGMConfig tunes the aggregation.
type SGMConfig struct {
	MaxDisp int
	// P1 penalizes ±1 disparity changes; P2 larger jumps.
	P1, P2 float32
	// UniquenessRatio rejects ambiguous winners (second-best must exceed
	// best by this factor).
	UniquenessRatio float32
	// MinTexture invalidates pixels whose 3×3 neighborhood variance is
	// below this threshold — the standard confidence gate against SGM's
	// smoothness prior streaking disparities into textureless regions.
	MinTexture float32
}

// DefaultSGMConfig returns settings matched to the 160×120 test rig.
func DefaultSGMConfig() SGMConfig {
	return SGMConfig{MaxDisp: 16, P1: 0.06, P2: 0.5, UniquenessRatio: 1.02, MinTexture: 1e-4}
}

// SGM computes a dense disparity map by semi-global cost aggregation over
// the four horizontal/vertical directions.
//
// Parallel structure: the raw cost volume and the winner-take-all pass are
// embarrassingly row-parallel; the aggregation runs the four directions in
// sequence (agg accumulates them in a fixed order) but fans the scanlines
// of each direction out across the worker pool — scanlines of one
// direction touch disjoint pixels, and each scanline keeps its serial
// recurrence, so the result is byte-identical for any worker count.
func SGM(left, right *Image, cfg SGMConfig) *DisparityMap {
	w, h := left.W, left.H
	nd := cfg.MaxDisp + 1
	// Raw matching cost: absolute difference of 3x1 means (cheap census
	// substitute adequate for the synthetic texture).
	cost := make([]float32, w*h*nd)
	idx := func(x, y, d int) int { return (y*w+x)*nd + d }
	parallel.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				for d := 0; d < nd; d++ {
					if x-d < 0 {
						cost[idx(x, y, d)] = 1 // out of view: high cost
						continue
					}
					diff := left.At(x, y) - right.At(x-d, y)
					if diff < 0 {
						diff = -diff
					}
					cost[idx(x, y, d)] = diff
				}
			}
		}
	})
	// Aggregate along 4 directions.
	agg := make([]float32, w*h*nd)
	dirs := [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for _, dir := range dirs {
		dx, dy := dir[0], dir[1]
		// Scanlines of one direction are independent recurrences over
		// disjoint pixels; each worker carries its own path/prev scratch.
		starts := scanStarts(w, h, dx, dy)
		parallel.For(len(starts), 1, func(s0, s1 int) {
			path := pathPool.Get(nd)
			prev := pathPool.Get(nd)
			for si := s0; si < s1; si++ {
				x, y := starts[si][0], starts[si][1]
				for d := 0; d < nd; d++ {
					prev[d] = cost[idx(x, y, d)]
					agg[idx(x, y, d)] += prev[d]
				}
				for {
					x += dx
					y += dy
					if x < 0 || x >= w || y < 0 || y >= h {
						break
					}
					minPrev := prev[0]
					for d := 1; d < nd; d++ {
						if prev[d] < minPrev {
							minPrev = prev[d]
						}
					}
					for d := 0; d < nd; d++ {
						best := prev[d]
						if d > 0 && prev[d-1]+cfg.P1 < best {
							best = prev[d-1] + cfg.P1
						}
						if d < nd-1 && prev[d+1]+cfg.P1 < best {
							best = prev[d+1] + cfg.P1
						}
						if minPrev+cfg.P2 < best {
							best = minPrev + cfg.P2
						}
						path[d] = cost[idx(x, y, d)] + best - minPrev
					}
					for d := 0; d < nd; d++ {
						prev[d] = path[d]
						agg[idx(x, y, d)] += path[d]
					}
				}
			}
			pathPool.Put(prev)
			pathPool.Put(path)
		})
	}
	// Winner take all with texture gating, uniqueness, and sub-pixel
	// refinement.
	m := &DisparityMap{W: w, H: h, D: make([]float32, w*h)}
	parallel.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				if cfg.MinTexture > 0 && localVariance3(left, x, y) < cfg.MinTexture {
					m.D[y*w+x] = -1
					continue
				}
				bestD, best, second := -1, float32(1e30), float32(1e30)
				for d := 0; d < nd; d++ {
					c := agg[idx(x, y, d)]
					if c < best {
						second = best
						best = c
						bestD = d
					} else if c < second {
						second = c
					}
				}
				if bestD < 0 || second < best*cfg.UniquenessRatio {
					m.D[y*w+x] = -1
					continue
				}
				dv := float32(bestD)
				if bestD > 0 && bestD < nd-1 {
					c0 := agg[idx(x, y, bestD-1)]
					c1 := best
					c2 := agg[idx(x, y, bestD+1)]
					den := c0 - 2*c1 + c2
					if den > 1e-9 {
						dv += 0.5 * (c0 - c2) / den
					}
				}
				m.D[y*w+x] = dv
			}
		}
	})
	return m
}

// localVariance3 returns the 3×3 intensity variance at (x, y).
func localVariance3(im *Image, x, y int) float32 {
	var sum, sumSq float32
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			v := im.At(x+dx, y+dy)
			sum += v
			sumSq += v * v
		}
	}
	mean := sum / 9
	return sumSq/9 - mean*mean
}

// scanStarts enumerates the starting pixels of every scanline for a
// direction.
func scanStarts(w, h, dx, dy int) [][2]int {
	var out [][2]int
	switch {
	case dx == 1:
		for y := 0; y < h; y++ {
			out = append(out, [2]int{0, y})
		}
	case dx == -1:
		for y := 0; y < h; y++ {
			out = append(out, [2]int{w - 1, y})
		}
	case dy == 1:
		for x := 0; x < w; x++ {
			out = append(out, [2]int{x, 0})
		}
	default: // dy == -1
		for x := 0; x < w; x++ {
			out = append(out, [2]int{x, h - 1})
		}
	}
	return out
}
