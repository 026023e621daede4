//! The application set: six Rosetta apps and a generated population, with
//! seeded input data and goldens from the `dfg::run_graph` interpreter.
//!
//! The *programs* are the workload definition and do not depend on the
//! seed (as the six Rosetta apps do not): a different graph would compile
//! and simulate at a different cost, and two runs could not be compared.
//! The seed draws the *data* every program runs on.

use std::cell::OnceCell;
use std::collections::HashMap;

use dfg::generate::{population, GenConfig, Rng};
use dfg::Graph;
use kir::types::Value;
use kir::wire::stream_to_words;
use rosetta::{bnn, digit, face, optical, rendering, spam, Scale};

/// Seed of the generated population's *structure* (topologies, rates,
/// kernel bodies). Fixed: see the module docs.
const POPULATION_SEED: u64 = 0x9e37_79b9;

/// One application with its inputs and expected outputs.
pub struct AppCase {
    /// Row name in reports, e.g. `rosetta/digit` or `gen/diamond.1`.
    pub name: String,
    /// Coarser grouping for workloads with many variants: the Rosetta app
    /// itself, or the generator family.
    pub group: String,
    /// Whether this is one of the (compute-bound) Rosetta apps, as opposed
    /// to a (transport-bound) generated one.
    pub rosetta: bool,
    pub graph: Graph,
    pub inputs: Vec<(String, Vec<Value>)>,
    golden: OnceCell<HashMap<String, Vec<Value>>>,
}

impl AppCase {
    fn new(
        name: String,
        group: String,
        rosetta: bool,
        graph: Graph,
        inputs: Vec<(String, Vec<Value>)>,
    ) -> AppCase {
        AppCase {
            name,
            group,
            rosetta,
            graph,
            inputs,
            golden: OnceCell::new(),
        }
    }

    /// External outputs of `graph` on `inputs` by the `dfg::run_graph`
    /// interpreter, computed on first use. A workload whose turns are
    /// checked against it asks for it during set-up; `rosetta_cold`, whose
    /// compiles leave the graph as it is, needs it only if one does not.
    pub fn golden(&self) -> &HashMap<String, Vec<Value>> {
        self.golden.get_or_init(|| {
            dfg::run_graph(&self.graph, &self.input_refs())
                .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", self.name))
                .0
        })
    }

    /// Inputs in the borrowed form the executors take.
    pub fn input_refs(&self) -> Vec<(&str, Vec<Value>)> {
        self.inputs
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect()
    }

    /// Input word streams in external-input declaration order (the form
    /// `pld::cosim_o0` takes).
    pub fn input_words(&self) -> Vec<Vec<u32>> {
        self.graph
            .ext_inputs
            .iter()
            .map(|p| {
                let stream = &self
                    .inputs
                    .iter()
                    .find(|(n, _)| *n == p.name)
                    .expect("every external input has a stream")
                    .1;
                stream_to_words(stream)
            })
            .collect()
    }

    /// Golden output word streams in external-output declaration order.
    pub fn golden_words(&self) -> Vec<Vec<u32>> {
        self.graph
            .ext_outputs
            .iter()
            .map(|p| stream_to_words(&self.golden()[&p.name]))
            .collect()
    }
}

/// Mixes a stream of seed material into one seed (splitmix steps).
pub fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64;
    for p in parts {
        h = Rng::new(h ^ p).next_u64();
    }
    h
}

/// The six Rosetta apps at `scale`, with input data drawn from `seed`.
pub fn rosetta_apps(scale: Scale, seed: u64) -> Vec<AppCase> {
    let s = |tag: u64| mix(&[seed, tag]);
    let mut apps = Vec::new();
    let mut push = |short: &str, graph: Graph, input: Vec<Value>| {
        let name = format!("rosetta/{short}");
        apps.push(AppCase::new(
            name.clone(),
            name,
            true,
            graph,
            vec![("Input_1".to_string(), input)],
        ));
    };
    {
        let (n, w, h) = rendering::dims(scale);
        let b = rendering::bench(scale);
        push("rendering", b.graph, rendering::workload(s(1), n, w, h));
    }
    {
        let (_, _, n_digits) = digit::dims(scale);
        let b = digit::bench(scale);
        push("digit", b.graph, digit::workload(s(2), n_digits));
    }
    {
        let (features, _, emails) = spam::dims(scale);
        let b = spam::bench(scale);
        push("spam", b.graph, spam::workload(s(3), features, emails));
    }
    {
        let (w, h) = optical::dims(scale);
        let b = optical::bench(scale);
        push("optical", b.graph, optical::workload(s(4), w, h));
    }
    {
        let windows = face::dims(scale);
        let b = face::bench(scale);
        push("face", b.graph, face::workload(s(5), windows));
    }
    {
        let images = bnn::dims(scale);
        let b = bnn::bench(scale);
        push("bnn", b.graph, bnn::workload(s(6), images));
    }
    apps
}

/// A generated population: one app per (family x replicate), `tokens`
/// tokens at each external input, data drawn from `seed`.
pub fn generated_apps(replicates: u64, tokens: u64, seed: u64) -> Vec<AppCase> {
    let base = GenConfig {
        seed: POPULATION_SEED,
        tokens,
        max_stages: 6,
    };
    let mut per_family: HashMap<&'static str, u64> = HashMap::new();
    population(&base, replicates)
        .into_iter()
        .enumerate()
        .map(|(i, app)| {
            let replicate = per_family.entry(app.family).or_insert(0);
            let name = format!("gen/{}.{}", app.family, *replicate);
            *replicate += 1;
            let inputs = app
                .inputs
                .iter()
                .enumerate()
                .map(|(port, (port_name, stream))| {
                    let mut rng = Rng::new(mix(&[seed, 0x67656e, i as u64, port as u64]));
                    let data = (0..stream.len())
                        .map(|_| rosetta::util::word(rng.next_u64() as u32))
                        .collect();
                    (port_name.clone(), data)
                })
                .collect();
            AppCase::new(
                name,
                format!("gen/{}", app.family),
                false,
                app.graph,
                inputs,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generated_apps(1, 64, 7);
        let b = generated_apps(1, 64, 7);
        let c = generated_apps(1, 64, 8);
        assert_eq!(a.len(), 6);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.inputs, y.inputs);
            assert_eq!(x.golden(), y.golden());
            // The programs are the workload definition; only data moves.
            assert_eq!(x.graph, z.graph);
            assert_ne!(x.inputs, z.inputs);
        }
    }

    #[test]
    fn rosetta_inputs_are_seeded_and_sized_like_the_suite() {
        let a = rosetta_apps(Scale::Tiny, 1);
        let b = rosetta_apps(Scale::Tiny, 2);
        let suite = rosetta::suite(Scale::Tiny);
        assert_eq!(a.len(), 6);
        for ((x, y), s) in a.iter().zip(&b).zip(&suite) {
            assert_eq!(x.graph, s.graph);
            assert_eq!(x.inputs[0].1.len(), s.inputs[0].1.len());
            assert_ne!(x.inputs, y.inputs);
            assert_eq!(x.input_words().len(), 1);
            assert!(!x.golden_words().is_empty());
        }
    }
}
