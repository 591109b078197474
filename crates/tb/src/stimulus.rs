//! Stimulus: the input schedule a testbench drives into a DUT.

use mage_logic::LogicVec;

/// A named input assignment.
pub type Drive = (String, LogicVec);

/// An input schedule: what to drive at each step.
///
/// A *step* is the unit of testbench time. For clocked designs a step is
/// one full cycle of the single clock (inputs applied while the clock is
/// low, outputs sampled after the rising edge has settled, then the
/// clock falls); for combinational designs a step is apply-settle-check.
/// [`crate::synthesize_testbench`] turns a stimulus into a bench on the
/// same schedule [`crate::run_testbench`] runs. Each step spans
/// [`crate::TIME_PER_STEP`] time units in the textual logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stimulus {
    /// Clock input name for sequential DUTs (`None` = combinational).
    pub clock: Option<String>,
    /// Input drives per step. Inputs not mentioned hold their previous
    /// value (first step should drive everything).
    pub steps: Vec<Vec<Drive>>,
}

impl Stimulus {
    /// A combinational stimulus from explicit per-step drives.
    pub fn combinational(steps: Vec<Vec<Drive>>) -> Self {
        Stimulus { clock: None, steps }
    }

    /// A clocked stimulus: `clock` rises and falls once per step.
    pub fn clocked(clock: impl Into<String>, steps: Vec<Vec<Drive>>) -> Self {
        Stimulus {
            clock: Some(clock.into()),
            steps,
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when there are no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Exhaustive combinational sweep over the given inputs (total width
    /// must be small; panics above 16 bits of sweep space).
    ///
    /// # Panics
    ///
    /// Panics if the summed input width exceeds 16 bits.
    pub fn exhaustive(inputs: &[(String, usize)]) -> Self {
        let total: usize = inputs.iter().map(|(_, w)| w).sum();
        assert!(total <= 16, "exhaustive sweep too wide ({total} bits)");
        let mut steps = Vec::with_capacity(1 << total);
        for pattern in 0u64..(1 << total) {
            let mut drives = Vec::with_capacity(inputs.len());
            let mut shift = 0usize;
            for (name, w) in inputs {
                let val = (pattern >> shift) & ((1u64 << w) - 1).max(1);
                drives.push((name.clone(), LogicVec::from_u64(*w, val)));
                shift += w;
            }
            steps.push(drives);
        }
        Stimulus::combinational(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_covers_space() {
        let s = Stimulus::exhaustive(&[("a".into(), 2), ("b".into(), 1)]);
        assert_eq!(s.len(), 8);
        // Every (a, b) combination appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for step in &s.steps {
            let a = step[0].1.to_u64().unwrap();
            let b = step[1].1.to_u64().unwrap();
            assert!(seen.insert((a, b)));
        }
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn exhaustive_rejects_wide() {
        let _ = Stimulus::exhaustive(&[("a".into(), 17)]);
    }

    #[test]
    fn constructors() {
        let c = Stimulus::clocked("clk", vec![vec![]]);
        assert_eq!(c.clock.as_deref(), Some("clk"));
        assert!(!c.is_empty());
    }
}
