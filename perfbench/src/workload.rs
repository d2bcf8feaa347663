//! The workload catalogue, read from `workloads.json` at compile time.

use mrcc_common::{Dataset, SubspaceCluster, SubspaceClustering, NOISE};
use mrcc_datagen::SyntheticSpec;
use serde_json::Value;

/// The catalogue file, embedded so the binary carries its own workloads.
pub const CATALOGUE: &str = include_str!("../workloads.json");

/// One benchmark workload: a synthetic-data spec plus how to run it.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: String,
    /// Space dimensionality `d`.
    pub dims: usize,
    /// Number of points `η`.
    pub points: usize,
    /// Embedded correlation clusters.
    pub clusters: usize,
    /// Fraction of uniform noise points.
    pub noise: f64,
    /// Random plane rotations applied after generation.
    pub rotations: usize,
    /// Requested fit threads, capped at the host's available parallelism.
    pub threads: usize,
    /// Seed used when `--seed` is not given.
    pub default_seed: u64,
    /// Seed reserved for confirming a later claim on an unseen input.
    pub held_out_seed: u64,
    /// A fit with a lower Quality counts as a failed operation.
    pub quality_floor: f64,
}

impl Workload {
    /// The generator spec at `default_seed`, with the point count scaled by
    /// `scale` (1 for the real workload, smaller for smoke runs).
    pub fn spec(&self, scale: f64) -> SyntheticSpec {
        let spec = SyntheticSpec::new(
            self.name.clone(),
            self.dims,
            self.points,
            self.clusters,
            self.noise,
            self.default_seed,
        );
        let spec = if self.rotations > 0 {
            spec.rotated(self.rotations)
        } else {
            spec
        };
        spec.scaled(scale)
    }

    /// Fit threads on a host with `available` hardware threads.
    pub fn threads_on(&self, available: usize) -> usize {
        self.threads.min(available).max(1)
    }

    /// The input for `seed`, with the point count scaled by `scale`.
    ///
    /// The cluster structure (subspaces, centres, spreads, sizes) is the
    /// spec's at `default_seed`; `seed` redraws every noise point uniformly
    /// and shuffles the rows. Every seed thus poses the same clustering
    /// problem at the same cost, while the points, their order and the
    /// Counting-tree cell ids differ. Letting the seed pick the structure
    /// instead would change the β count, and with it the fit time, by up
    /// to 2× between seeds.
    ///
    /// # Panics
    /// Panics on a spec the generator rejects, which is a catalogue bug.
    pub fn input(&self, seed: u64, scale: f64) -> Input {
        let synth = mrcc_datagen::generate(&self.spec(scale));
        let (n, d) = (synth.dataset.len(), synth.dataset.dims());
        let labels = synth.ground_truth.labels();
        let mut rng = SplitMix64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut data = Vec::with_capacity(n * d);
        let mut new_index = vec![0; n];
        for (i, &old) in order.iter().enumerate() {
            new_index[old] = i;
            if labels[old] == NOISE {
                data.extend((0..d).map(|_| rng.unit()));
            } else {
                data.extend_from_slice(synth.dataset.point(old));
            }
        }
        let clusters = synth
            .ground_truth
            .clusters()
            .iter()
            .map(|c| SubspaceCluster::new(c.points.iter().map(|&p| new_index[p]).collect(), c.axes))
            .collect();
        Input {
            dataset: Dataset::from_flat(d, data).expect("generated values are finite"),
            truth: SubspaceClustering::new(n, d, clusters),
        }
    }
}

/// A generated input: the points and the generator's ground truth.
#[derive(Debug, Clone)]
pub struct Input {
    /// The points, inside `[0,1)^d`.
    pub dataset: Dataset,
    /// The embedded clusters; every other point is noise.
    pub truth: SubspaceClustering,
}

/// SplitMix64: a tiny seeded generator, enough for shuffling and uniform
/// noise.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (the modulo bias is far below anything measured).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn field<'a>(entry: &'a Value, key: &str) -> Result<&'a Value, String> {
    entry
        .get(key)
        .ok_or_else(|| format!("workloads.json: entry lacks `{key}`"))
}

fn count(entry: &Value, key: &str) -> Result<u64, String> {
    field(entry, key)?
        .as_u64()
        .ok_or_else(|| format!("workloads.json: `{key}` is not a whole number"))
}

fn size(entry: &Value, key: &str) -> Result<usize, String> {
    usize::try_from(count(entry, key)?).map_err(|e| format!("workloads.json: `{key}`: {e}"))
}

fn real(entry: &Value, key: &str) -> Result<f64, String> {
    field(entry, key)?
        .as_f64()
        .ok_or_else(|| format!("workloads.json: `{key}` is not a number"))
}

fn parse(entry: &Value) -> Result<Workload, String> {
    Ok(Workload {
        name: field(entry, "name")?
            .as_str()
            .ok_or("workloads.json: `name` is not a string")?
            .to_string(),
        dims: size(entry, "dims")?,
        points: size(entry, "points")?,
        clusters: size(entry, "clusters")?,
        noise: real(entry, "noise")?,
        rotations: size(entry, "rotations")?,
        threads: size(entry, "threads")?,
        default_seed: count(entry, "default_seed")?,
        held_out_seed: count(entry, "held_out_seed")?,
        quality_floor: real(entry, "quality_floor")?,
    })
}

/// Every workload of the catalogue, in file order.
///
/// # Errors
/// A malformed catalogue.
pub fn catalogue() -> Result<Vec<Workload>, String> {
    let doc: Value = serde_json::from_str(CATALOGUE).map_err(|e| format!("workloads.json: {e}"))?;
    doc.get("workloads")
        .and_then(Value::as_array)
        .ok_or("workloads.json: no `workloads` array")?
        .iter()
        .map(parse)
        .collect()
}

/// The workload called `name`.
///
/// # Errors
/// A malformed catalogue or an unknown name.
pub fn find(name: &str) -> Result<Workload, String> {
    let all = catalogue()?;
    let names: Vec<String> = all.iter().map(|w| w.name.clone()).collect();
    all.into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}` (known: {})", names.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_shape(a: &SyntheticSpec, b: &SyntheticSpec) -> bool {
        (a.dims, a.n_points, a.n_clusters, a.rotations, a.seed)
            == (b.dims, b.n_points, b.n_clusters, b.rotations, b.seed)
            && a.noise_fraction.to_bits() == b.noise_fraction.to_bits()
    }

    #[test]
    fn catalogue_specs_match_the_paper_groups_they_name() {
        let paper = find("paper14d").unwrap();
        let base = mrcc_datagen::base_14d();
        assert_eq!(paper.default_seed, base.seed);
        assert!(same_shape(&paper.spec(1.0), &base));

        let rotated = find("rotated12d-t2").unwrap();
        let group = mrcc_datagen::rotated_group();
        let r12 = group.iter().find(|s| s.name == "12d_r").unwrap();
        assert_eq!(rotated.default_seed, r12.seed);
        assert!(same_shape(&rotated.spec(1.0), r12));
    }

    #[test]
    fn seeds_are_distinct_and_floors_are_sane() {
        let all = catalogue().unwrap();
        assert_eq!(all.len(), 2);
        for w in &all {
            assert_ne!(w.default_seed, w.held_out_seed, "{}", w.name);
            assert!((0.0..1.0).contains(&w.quality_floor), "{}", w.name);
            assert!(w.threads >= 1);
        }
        assert!(find("nope").is_err());
    }
}
