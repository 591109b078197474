//! The benchmark problem type and stimulus derivation.

use mage_llm::ProblemOracle;
use mage_logic::{fnv1a, LogicVec};
use mage_sim::{elaborate, Design};
use mage_tb::Stimulus;
use mage_verilog::ast::Direction;
use mage_verilog::{parse, SourceFile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Problem category, mirroring the VerilogEval mixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Basic gates and boolean expressions.
    CombGate,
    /// Multiplexers and selectors.
    CombMux,
    /// Decoders, encoders, code converters.
    CombCode,
    /// Adders, comparators, ALUs.
    CombArith,
    /// Karnaugh-map / specification-table problems.
    Kmap,
    /// Flip-flops and registers.
    SeqReg,
    /// Counters and shift registers.
    SeqCount,
    /// Finite state machines.
    Fsm,
    /// Hierarchical, multi-module designs.
    Hier,
}

/// How a problem's stimulus is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StimSpec {
    /// Exhaustive sweep of all input combinations (combinational, total
    /// input width ≤ 12 bits — wider specs fall back to 256 random
    /// vectors).
    Exhaustive,
    /// `vectors` random input vectors (combinational).
    RandomComb {
        /// Number of vectors.
        vectors: usize,
    },
    /// Clocked: assert `reset` (if any) for `reset_cycles`, then drive
    /// random inputs for `cycles` cycles.
    Clocked {
        /// Total post-reset cycles.
        cycles: usize,
        /// Reset input name, when the design has one.
        reset: Option<&'static str>,
        /// `true` when reset is active-high.
        reset_active_high: bool,
        /// Cycles to hold reset at the start.
        reset_cycles: usize,
    },
}

/// One benchmark problem: NL spec, golden design, stimulus recipe.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Stable id, `probNNN_name` in VerilogEval style.
    pub id: &'static str,
    /// Category.
    pub category: Category,
    /// Channel difficulty (≥ 0); the suite averages near 1.0.
    pub difficulty: f64,
    /// Name of the module to implement.
    pub top: &'static str,
    /// The natural-language specification handed to the agents.
    pub spec: &'static str,
    /// Golden Verilog source (top module last when hierarchical).
    pub golden: &'static str,
    /// Stimulus recipe.
    pub stim: StimSpec,
    /// Member of the VerilogEval-v1-Human-style suite.
    pub in_v1: bool,
    /// Member of the VerilogEval-v2-style suite.
    pub in_v2: bool,
}

/// What every oracle of a problem shares: the parsed golden source, its
/// data inputs and the elaborated golden design. None of it depends on
/// the seed, so it is built once per problem per process.
#[derive(Debug)]
struct Golden {
    file: SourceFile,
    inputs: Vec<(String, usize)>,
    design: Arc<Design>,
}

/// Process-wide golden cache, keyed by problem id (ids are unique in the
/// registry).
static GOLDEN_CACHE: OnceLock<Mutex<HashMap<&'static str, Arc<Golden>>>> = OnceLock::new();

impl Problem {
    /// The problem's golden source, design and data inputs, from the
    /// process-wide cache (built on a problem's first use).
    fn golden(&self) -> Arc<Golden> {
        let cache = GOLDEN_CACHE.get_or_init(Default::default);
        if let Some(hit) = cache.lock().expect("golden cache poisoned").get(self.id) {
            return Arc::clone(hit);
        }
        // Build outside the lock: parallel evaluation units would
        // otherwise serialize on it.
        let file =
            parse(self.golden).unwrap_or_else(|e| panic!("golden of {} broken: {e}", self.id));
        let inputs = data_inputs(self, &file);
        let design = elaborate(&file, self.top)
            .unwrap_or_else(|e| panic!("golden of {} does not elaborate: {e}", self.id));
        let golden = Arc::new(Golden {
            file,
            inputs,
            design: Arc::new(design),
        });
        let mut cache = cache.lock().expect("golden cache poisoned");
        Arc::clone(cache.entry(self.id).or_insert(golden))
    }

    /// The parsed golden source.
    ///
    /// # Panics
    ///
    /// Panics when the embedded golden source is invalid — that is a
    /// library bug caught by the self-consistency tests.
    pub fn golden_file(&self) -> SourceFile {
        self.golden().file.clone()
    }

    /// `(name, width)` of the top module's data inputs — everything
    /// except the clock and reset named by the stimulus recipe.
    pub fn data_inputs(&self) -> Vec<(String, usize)> {
        self.golden().inputs.clone()
    }

    /// Build the problem's stimulus, deterministically from `seed`.
    pub fn stimulus(&self, seed: u64) -> Stimulus {
        self.generate_stimulus(seed, 256, 1, 1, 1)
    }

    /// The benchmark-side grading stimulus: like [`Problem::stimulus`]
    /// but substantially longer (4x the cycles, 3x the vectors), the way
    /// a benchmark's reference testbench is more thorough than anything
    /// an agent writes during the run. Always derived from `seed` alone,
    /// so grading is identical for every system under test.
    pub fn grading_stimulus(&self, seed: u64) -> Stimulus {
        // A salted seed, 768 vectors for a spec too wide to sweep, and
        // two independent reset phases with long random tails.
        self.generate_stimulus(seed ^ 0x6AD3, 768, 3, 2, 2)
    }

    /// The one stimulus recipe. An exhaustive spec too wide to sweep gets
    /// `wide_vectors` random vectors and a random one `vector_factor`
    /// times its vectors; a clocked spec runs `reset_phases` times
    /// through its reset cycles and then `cycle_factor` times its cycles.
    fn generate_stimulus(
        &self,
        seed: u64,
        wide_vectors: usize,
        vector_factor: usize,
        reset_phases: usize,
        cycle_factor: usize,
    ) -> Stimulus {
        let mut rng = StdRng::seed_from_u64(seed ^ fnv1a(self.id.as_bytes()));
        let golden = self.golden();
        let inputs = &golden.inputs;
        match self.stim {
            StimSpec::Exhaustive => {
                let total: usize = inputs.iter().map(|(_, w)| w).sum();
                if total <= 12 {
                    Stimulus::exhaustive(inputs)
                } else {
                    random_comb(inputs, wide_vectors, &mut rng)
                }
            }
            StimSpec::RandomComb { vectors } => {
                random_comb(inputs, vectors * vector_factor, &mut rng)
            }
            StimSpec::Clocked {
                cycles,
                reset,
                reset_active_high,
                reset_cycles,
            } => {
                let phase = reset_cycles + cycles * cycle_factor;
                let steps = (0..reset_phases * phase)
                    .map(|i| {
                        let mut drives = Vec::with_capacity(inputs.len() + 1);
                        if let Some(rst) = reset {
                            let active = i % phase < reset_cycles;
                            drives.push((
                                rst.to_string(),
                                LogicVec::from_bool(active == reset_active_high),
                            ));
                        }
                        for (name, w) in inputs {
                            drives.push((name.clone(), random_vec(*w, &mut rng)));
                        }
                        drives
                    })
                    .collect();
                Stimulus::clocked("clk", steps)
            }
        }
    }

    /// Build the [`ProblemOracle`] the synthetic channel registers. The
    /// golden design is the problem's cached one, shared by every
    /// oracle (and so is its compiled bytecode); only the stimulus is
    /// built per seed.
    pub fn oracle(&self, seed: u64) -> ProblemOracle {
        let golden = self.golden();
        ProblemOracle {
            golden: golden.file.clone(),
            top: self.top.to_string(),
            golden_design: Arc::clone(&golden.design),
            stimulus: self.stimulus(seed),
            difficulty: self.difficulty,
        }
    }
}

/// `(name, width)` of the top module's data inputs in `file`, `problem`'s
/// golden source — everything except the clock and reset named by its
/// stimulus recipe.
fn data_inputs(problem: &Problem, file: &SourceFile) -> Vec<(String, usize)> {
    let module = file.module(problem.top).expect("top module present");
    let mut consts = HashMap::new();
    for p in &module.params {
        if let Some(v) = mage_sim::fold_const_expr(&p.default, &consts) {
            consts.insert(p.name.clone(), v);
        }
    }
    let (clock, reset) = match problem.stim {
        StimSpec::Clocked { reset, .. } => (Some("clk"), reset),
        _ => (None, None),
    };
    module
        .ports
        .iter()
        .filter(|p| p.dir == Direction::Input)
        .filter(|p| Some(p.name.as_str()) != clock && Some(p.name.as_str()) != reset)
        .map(|p| {
            let w = match &p.range {
                None => 1,
                Some(r) => {
                    let msb = mage_sim::fold_const_expr(&r.msb, &consts)
                        .and_then(|v| v.to_u64())
                        .unwrap_or(0);
                    let lsb = mage_sim::fold_const_expr(&r.lsb, &consts)
                        .and_then(|v| v.to_u64())
                        .unwrap_or(0);
                    (msb - lsb + 1) as usize
                }
            };
            (p.name.clone(), w)
        })
        .collect()
}

fn random_vec<R: Rng>(width: usize, rng: &mut R) -> LogicVec {
    // Word-at-a-time: stimulus generation is on the oracle-construction
    // hot path, and bit-by-bit drawing dominated it.
    if width <= 64 {
        LogicVec::from_u64(width, rng.gen())
    } else if width <= 128 {
        LogicVec::from_u128(width, rng.gen())
    } else {
        let mut v = LogicVec::new(width);
        for i in 0..width {
            v.set_bit(i, mage_logic::LogicBit::from(rng.gen::<bool>()));
        }
        v
    }
}

fn random_comb<R: Rng>(inputs: &[(String, usize)], vectors: usize, rng: &mut R) -> Stimulus {
    let steps = (0..vectors)
        .map(|_| {
            inputs
                .iter()
                .map(|(n, w)| (n.clone(), random_vec(*w, rng)))
                .collect()
        })
        .collect();
    Stimulus::combinational(steps)
}

#[cfg(test)]
mod tests {
    use crate::registry;

    #[test]
    fn stimulus_is_seed_deterministic() {
        let p = registry::by_id("prob001_and2").unwrap();
        assert_eq!(p.stimulus(1), p.stimulus(1));
        let q = registry::by_id("prob047_accum8").unwrap();
        assert_eq!(q.stimulus(5), q.stimulus(5));
        assert_ne!(q.stimulus(5), q.stimulus(6));
    }

    #[test]
    fn data_inputs_exclude_clock_and_reset() {
        let p = registry::by_id("prob030_counter4").unwrap();
        let names: Vec<String> = p.data_inputs().into_iter().map(|(n, _)| n).collect();
        assert!(!names.contains(&"clk".to_string()));
        assert!(!names.contains(&"rst".to_string()));
    }
}
