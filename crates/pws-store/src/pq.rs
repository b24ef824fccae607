//! Product quantization for cold-tier vector storage.
//!
//! A [`ProductQuantizer`] splits a `dim`-dimensional vector into `m`
//! contiguous subspaces (`dim % m == 0`) and learns, per subspace, a
//! codebook of `k ≤ 256` centroids with Lloyd's k-means. A vector is
//! stored cold as `m` bytes — one centroid index per subspace — and
//! reconstructed as the concatenation of its centroids.
//!
//! Everything is **deterministic**: seeded SplitMix64 initialization,
//! fixed iteration order, ties broken by lowest index. Training the same
//! vector set with the same parameters always produces the same codebook,
//! so the record codec's bytes are a pure function of the record.
//!
//! The quantized form is *approximate* and serves scan/analytics over
//! cold records; fault-in always reads the exact bit-level sections.

use pws_obs::hash::splitmix64;

/// A trained product quantizer: `m` subspaces × `k` centroids over
/// `dim`-dimensional vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductQuantizer {
    dim: usize,
    m: usize,
    k: usize,
    /// Per-subspace codebooks; `centroids[s]` is `k × sub_dim` values,
    /// centroid `c` at `[c * sub_dim .. (c + 1) * sub_dim]`.
    centroids: Vec<Vec<f64>>,
}

impl ProductQuantizer {
    /// Vector dimensionality this quantizer encodes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of subspaces — the encoded size in bytes.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Centroids per subspace.
    pub fn k(&self) -> usize {
        self.k
    }

    fn sub_dim(&self) -> usize {
        self.dim / self.m
    }

    /// Train on `vectors` with `m` subspaces and `k` centroids each.
    ///
    /// Returns `None` for degenerate parameters: no vectors, `dim == 0`,
    /// `m == 0` or not dividing `dim`, `k == 0` or `k > 256`, any vector
    /// of the wrong length, or any non-finite component.
    pub fn train(
        vectors: &[Vec<f64>],
        m: usize,
        k: usize,
        iters: usize,
        seed: u64,
    ) -> Option<Self> {
        let dim = vectors.first()?.len();
        if dim == 0 || m == 0 || !dim.is_multiple_of(m) || k == 0 || k > 256 {
            return None;
        }
        if vectors.iter().any(|v| v.len() != dim) {
            return None;
        }
        if vectors.iter().any(|v| v.iter().any(|x| !x.is_finite())) {
            return None;
        }
        let k = k.min(vectors.len()).max(1);
        let sub_dim = dim / m;
        let mut centroids = Vec::with_capacity(m);
        for s in 0..m {
            let subs: Vec<&[f64]> =
                vectors.iter().map(|v| &v[s * sub_dim..(s + 1) * sub_dim]).collect();
            centroids.push(kmeans(&subs, sub_dim, k, iters, splitmix64(seed ^ s as u64)));
        }
        Some(ProductQuantizer { dim, m, k, centroids })
    }

    /// Encode a vector as `m` centroid indices (nearest per subspace,
    /// ties by lowest index). `None` if the length differs from `dim`.
    pub fn encode(&self, v: &[f64]) -> Option<Vec<u8>> {
        if v.len() != self.dim {
            return None;
        }
        let sub_dim = self.sub_dim();
        let mut code = Vec::with_capacity(self.m);
        for s in 0..self.m {
            let sub = &v[s * sub_dim..(s + 1) * sub_dim];
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..self.k {
                let cent = &self.centroids[s][c * sub_dim..(c + 1) * sub_dim];
                let d = dist_sq(sub, cent);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            code.push(best as u8);
        }
        Some(code)
    }

    /// Reconstruct the approximate vector for a code word. `None` if the
    /// code length differs from `m` or any index is out of range.
    pub fn decode(&self, code: &[u8]) -> Option<Vec<f64>> {
        if code.len() != self.m {
            return None;
        }
        let sub_dim = self.sub_dim();
        let mut out = Vec::with_capacity(self.dim);
        for (s, &c) in code.iter().enumerate() {
            let c = usize::from(c);
            if c >= self.k {
                return None;
            }
            out.extend_from_slice(&self.centroids[s][c * sub_dim..(c + 1) * sub_dim]);
        }
        Some(out)
    }

    /// Serialize: `dim u32 · m u32 · k u32 · m × k × sub_dim f64 bits`,
    /// all little-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.m * self.k * self.sub_dim() * 8);
        out.extend_from_slice(&(self.dim as u32).to_le_bytes());
        out.extend_from_slice(&(self.m as u32).to_le_bytes());
        out.extend_from_slice(&(self.k as u32).to_le_bytes());
        for cb in &self.centroids {
            for &v in cb {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        out
    }

    /// Inverse of [`Self::to_bytes`]. `None` on any structural problem
    /// (never panics on corrupt input).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 12 {
            return None;
        }
        let dim = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let m = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let k = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        if dim == 0 || m == 0 || !dim.is_multiple_of(m) || k == 0 || k > 256 {
            return None;
        }
        let sub_dim = dim / m;
        let want = m.checked_mul(k)?.checked_mul(sub_dim)?.checked_mul(8)?;
        if bytes.len() != 12 + want {
            return None;
        }
        let mut at = 12;
        let mut centroids = Vec::with_capacity(m);
        for _ in 0..m {
            let mut cb = Vec::with_capacity(k * sub_dim);
            for _ in 0..k * sub_dim {
                cb.push(f64::from_bits(u64::from_le_bytes(
                    bytes[at..at + 8].try_into().unwrap(),
                )));
                at += 8;
            }
            centroids.push(cb);
        }
        Some(ProductQuantizer { dim, m, k, centroids })
    }
}

fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Lloyd's k-means over `sub_dim`-dimensional points, fully deterministic:
/// seeded sample initialization, assignment ties to the lowest centroid
/// index, empty clusters reseeded to the point farthest from its centroid.
fn kmeans(points: &[&[f64]], sub_dim: usize, k: usize, iters: usize, seed: u64) -> Vec<f64> {
    let n = points.len();
    // Initialize with k deterministic samples: a seeded permutation-free
    // draw — stride through the points from a seeded start.
    let mut centroids = vec![0.0; k * sub_dim];
    for c in 0..k {
        let idx = if k >= n { c % n } else { (splitmix64(seed ^ c as u64) as usize) % n };
        centroids[c * sub_dim..(c + 1) * sub_dim].copy_from_slice(points[idx]);
    }

    let mut assign = vec![0usize; n];
    for _ in 0..iters {
        // Assignment.
        for (i, p) in points.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let d = dist_sq(p, &centroids[c * sub_dim..(c + 1) * sub_dim]);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            assign[i] = best;
        }
        // Update.
        let mut sums = vec![0.0; k * sub_dim];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            let c = assign[i];
            counts[c] += 1;
            for (d, &v) in p.iter().enumerate() {
                sums[c * sub_dim + d] += v;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Reseed the empty cluster with the point farthest from
                // its current centroid (first max — deterministic).
                let mut far = 0usize;
                let mut far_d = -1.0;
                for (i, p) in points.iter().enumerate() {
                    let a = assign[i];
                    let d = dist_sq(p, &centroids[a * sub_dim..(a + 1) * sub_dim]);
                    if d > far_d {
                        far_d = d;
                        far = i;
                    }
                }
                centroids[c * sub_dim..(c + 1) * sub_dim].copy_from_slice(points[far]);
            } else {
                for d in 0..sub_dim {
                    centroids[c * sub_dim + d] = sums[c * sub_dim + d] / counts[c] as f64;
                }
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(rows: &[&[f64]]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn train_rejects_degenerate_inputs() {
        assert!(ProductQuantizer::train(&[], 1, 4, 4, 1).is_none());
        assert!(ProductQuantizer::train(&vecs(&[&[]]), 1, 4, 4, 1).is_none());
        assert!(ProductQuantizer::train(&vecs(&[&[1.0, 2.0]]), 3, 4, 4, 1).is_none(), "m∤dim");
        assert!(ProductQuantizer::train(&vecs(&[&[1.0], &[1.0, 2.0]]), 1, 4, 4, 1).is_none());
        assert!(ProductQuantizer::train(&vecs(&[&[f64::NAN]]), 1, 4, 4, 1).is_none());
        assert!(ProductQuantizer::train(&vecs(&[&[1.0]]), 1, 0, 4, 1).is_none());
        assert!(ProductQuantizer::train(&vecs(&[&[1.0]]), 1, 257, 4, 1).is_none());
    }

    #[test]
    fn exact_when_k_covers_distinct_points() {
        let vs = vecs(&[&[0.0, 10.0], &[1.0, 20.0], &[2.0, 30.0]]);
        let pq = ProductQuantizer::train(&vs, 2, 3, 16, 7).unwrap();
        for v in &vs {
            let code = pq.encode(v).unwrap();
            let back = pq.decode(&code).unwrap();
            for (a, b) in v.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn deterministic_across_trainings() {
        let vs: Vec<Vec<f64>> =
            (0..40).map(|i| (0..4).map(|d| ((i * 7 + d) % 13) as f64).collect()).collect();
        let a = ProductQuantizer::train(&vs, 2, 8, 8, 42).unwrap();
        let b = ProductQuantizer::train(&vs, 2, 8, 8, 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn bytes_round_trip() {
        let vs = vecs(&[&[1.5, -2.5, 3.5, 0.0], &[0.5, 2.5, -3.5, 1.0]]);
        let pq = ProductQuantizer::train(&vs, 4, 2, 8, 3).unwrap();
        let back = ProductQuantizer::from_bytes(&pq.to_bytes()).unwrap();
        assert_eq!(pq, back);
    }

    #[test]
    fn from_bytes_rejects_corrupt() {
        let pq = ProductQuantizer::train(&vecs(&[&[1.0, 2.0]]), 2, 1, 4, 1).unwrap();
        let bytes = pq.to_bytes();
        assert!(ProductQuantizer::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(ProductQuantizer::from_bytes(&[]).is_none());
        let mut zero_m = bytes.clone();
        zero_m[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(ProductQuantizer::from_bytes(&zero_m).is_none());
    }

    #[test]
    fn decode_rejects_out_of_range_code() {
        let pq = ProductQuantizer::train(&vecs(&[&[1.0], &[2.0]]), 1, 2, 4, 1).unwrap();
        assert!(pq.decode(&[200]).is_none());
        assert!(pq.decode(&[0, 0]).is_none());
        assert!(pq.decode(&[0]).is_some());
    }

    #[test]
    fn reconstruction_stays_within_data_range() {
        // Centroids are means of training points, so every decoded
        // component lies within the per-dimension min..max envelope.
        let vs: Vec<Vec<f64>> =
            (0..50).map(|i| (0..3).map(|d| ((i * 11 + d * 3) % 17) as f64 - 8.0).collect()).collect();
        let pq = ProductQuantizer::train(&vs, 3, 8, 8, 9).unwrap();
        for v in &vs {
            let back = pq.decode(&pq.encode(v).unwrap()).unwrap();
            for d in 0..3 {
                let lo = vs.iter().map(|v| v[d]).fold(f64::INFINITY, f64::min);
                let hi = vs.iter().map(|v| v[d]).fold(f64::NEG_INFINITY, f64::max);
                assert!(back[d] >= lo - 1e-9 && back[d] <= hi + 1e-9);
            }
        }
    }
}
