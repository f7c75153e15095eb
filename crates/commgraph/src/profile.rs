//! Profile (de)serialization.
//!
//! RAHTM is an *offline* mapper: a profiling run records the application's
//! communication once, and mappings are computed from the saved profile and
//! reused across runs (§V-B). A [`Profile`] is our stand-in for an IPM
//! dump: the communication graph plus the metadata the execution-time model
//! needs (communication fraction, iteration count).

use crate::graph::{CommGraph, Flow};
use crate::nas::Benchmark;

/// A saved communication profile.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Human-readable workload name (e.g. "CG.D.16384").
    pub name: String,
    /// Number of MPI ranks.
    pub num_ranks: u32,
    /// Fraction of execution time spent in (point-to-point) communication
    /// under the default mapping — the "opportunity" of Figure 9.
    pub comm_fraction: f64,
    /// Iterations of the main loop (communication repeats per run).
    pub iterations: u32,
    /// Aggregated per-iteration flows.
    pub flows: Vec<Flow>,
}

impl Profile {
    /// Builds a profile from a graph and metadata.
    pub fn from_graph(name: &str, graph: &CommGraph, comm_fraction: f64, iterations: u32) -> Self {
        assert!((0.0..=1.0).contains(&comm_fraction));
        Profile {
            name: name.to_string(),
            num_ranks: graph.num_ranks(),
            comm_fraction,
            iterations,
            flows: graph.flows().to_vec(),
        }
    }

    /// Captures one of the paper's benchmarks at a rank count.
    pub fn of_benchmark(bench: Benchmark, num_ranks: u32) -> Self {
        let graph = bench.graph(num_ranks);
        Profile::from_graph(
            &format!("{}.{}", bench.name(), num_ranks),
            &graph,
            bench.comm_fraction(),
            bench.iterations(),
        )
    }

    /// Reconstructs the communication graph.
    pub fn to_graph(&self) -> CommGraph {
        let mut g = CommGraph::new(self.num_ranks);
        for f in &self.flows {
            g.add(f.src, f.dst, f.bytes);
        }
        g.validate();
        g
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        let flows = self
            .flows
            .iter()
            .map(|f| {
                Value::Object(vec![
                    ("src".to_string(), Value::Number(f.src as f64)),
                    ("dst".to_string(), Value::Number(f.dst as f64)),
                    ("bytes".to_string(), Value::Number(f.bytes)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("name".to_string(), Value::String(self.name.clone())),
            (
                "num_ranks".to_string(),
                Value::Number(self.num_ranks as f64),
            ),
            (
                "comm_fraction".to_string(),
                Value::Number(self.comm_fraction),
            ),
            (
                "iterations".to_string(),
                Value::Number(self.iterations as f64),
            ),
            ("flows".to_string(), Value::Array(flows)),
        ]);
        serde_json::to_string_pretty(&doc)
    }

    /// Parses from JSON.
    ///
    /// # Errors
    /// Returns the underlying `serde_json` error for malformed input or a
    /// shape error when a required field is missing or mistyped.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        use serde_json::{Error, Value};
        let doc = serde_json::from_str(s)?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| Error::custom(format!("profile is missing field '{key}'")))
        };
        let num = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| Error::custom(format!("'{key}' must be a non-negative integer")))
        };
        let float = |v: &Value, key: &str| {
            v.as_f64()
                .ok_or_else(|| Error::custom(format!("'{key}' must be a number")))
        };
        let flows = field("flows")?
            .as_array()
            .ok_or_else(|| Error::custom("'flows' must be an array"))?
            .iter()
            .map(|f| {
                let part = |key: &str| {
                    f.get(key)
                        .ok_or_else(|| Error::custom(format!("flow is missing field '{key}'")))
                };
                Ok(Flow {
                    src: part("src")?
                        .as_u64()
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| Error::custom("flow 'src' must be a rank"))?,
                    dst: part("dst")?
                        .as_u64()
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| Error::custom("flow 'dst' must be a rank"))?,
                    bytes: float(part("bytes")?, "bytes")?,
                })
            })
            .collect::<Result<Vec<Flow>, Error>>()?;
        Ok(Profile {
            name: field("name")?
                .as_str()
                .ok_or_else(|| Error::custom("'name' must be a string"))?
                .to_string(),
            num_ranks: u32::try_from(num("num_ranks")?)
                .map_err(|_| Error::custom("'num_ranks' out of range"))?,
            comm_fraction: float(field("comm_fraction")?, "comm_fraction")?,
            iterations: u32::try_from(num("iterations")?)
                .map_err(|_| Error::custom("'iterations' out of range"))?,
            flows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;

    #[test]
    fn roundtrip_json() {
        let g = patterns::halo_2d(4, 4, 2.5, true);
        let p = Profile::from_graph("halo", &g, 0.4, 100);
        let q = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(q.name, "halo");
        assert_eq!(q.num_ranks, 16);
        assert_eq!(q.iterations, 100);
        assert_eq!(q.to_graph(), g);
    }

    #[test]
    fn benchmark_profile() {
        let p = Profile::of_benchmark(Benchmark::Cg, 64);
        assert_eq!(p.name, "CG.64");
        assert!(p.comm_fraction > 0.7);
        let g = p.to_graph();
        assert_eq!(g.num_ranks(), 64);
        assert!(g.num_flows() > 0);
    }

    #[test]
    fn malformed_json_errors() {
        assert!(Profile::from_json("{not json").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let p = Profile::of_benchmark(Benchmark::Bt, 16);
        let dir = std::env::temp_dir().join("rahtm_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bt16.json");
        std::fs::write(&path, p.to_json()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let q = Profile::from_json(&text).unwrap();
        assert_eq!(q.to_graph(), p.to_graph());
        assert_eq!(q.iterations, Benchmark::Bt.iterations());
    }

    #[test]
    fn graph_volume_survives_roundtrip_exactly() {
        // f64 bit-exactness through JSON (serde_json preserves doubles)
        let mut g = CommGraph::new(3);
        g.add(0, 1, 1.0 / 3.0);
        g.add(1, 2, 123456789.000001);
        let p = Profile::from_graph("exact", &g, 0.5, 1);
        let q = Profile::from_json(&p.to_json()).unwrap().to_graph();
        assert_eq!(q.volume(0, 1), 1.0 / 3.0);
        assert_eq!(q.volume(1, 2), 123456789.000001);
    }

    #[test]
    #[should_panic]
    fn invalid_fraction_rejected() {
        let g = CommGraph::new(2);
        Profile::from_graph("x", &g, 1.5, 1);
    }
}
