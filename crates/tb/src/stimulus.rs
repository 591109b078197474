//! Stimulus: the input schedule a testbench drives into a DUT.

use crate::steps::StepTable;
use mage_logic::LogicVec;
use std::sync::Arc;

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
/// [`crate::TIME_PER_STEP`] time units in the textual logs. Inputs a
/// step does not drive hold their previous value (the first step should
/// drive everything).
///
/// The drives live in one port-indexed [`StepTable`] behind an `Arc`:
/// cloning a stimulus, or synthesizing a bench from it, shares the
/// table instead of copying it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Stimulus {
    /// Clock input name for sequential DUTs (`None` = combinational).
    clock: Option<String>,
    drives: Arc<StepTable>,
}

impl Stimulus {
    /// A stimulus driving `drives`, clocked by `clock` when it is a
    /// sequential one.
    pub fn new(clock: Option<String>, drives: StepTable) -> Self {
        debug_assert!(drives.in_first_use_order(), "ports out of first-use order");
        Stimulus {
            clock,
            drives: Arc::new(drives),
        }
    }

    /// A combinational stimulus from per-step `(name, value)` drives.
    pub fn combinational<S: AsRef<str>>(
        steps: impl IntoIterator<Item = impl IntoIterator<Item = (S, LogicVec)>>,
    ) -> Self {
        Stimulus::new(None, StepTable::from_named(steps))
    }

    /// A clocked stimulus: `clock` rises and falls once per step.
    pub fn clocked<S: AsRef<str>>(
        clock: impl Into<String>,
        steps: impl IntoIterator<Item = impl IntoIterator<Item = (S, LogicVec)>>,
    ) -> Self {
        Stimulus::new(Some(clock.into()), StepTable::from_named(steps))
    }

    /// The clock input, for a sequential stimulus.
    pub fn clock(&self) -> Option<&str> {
        self.clock.as_deref()
    }

    /// The drives.
    pub(crate) fn drives(&self) -> &StepTable {
        &self.drives
    }

    /// The shared drive table.
    #[cfg(test)]
    pub(crate) fn shared_drives(&self) -> &Arc<StepTable> {
        &self.drives
    }

    /// Every step's drives by name, in step order.
    pub fn steps(
        &self,
    ) -> impl ExactSizeIterator<Item = impl ExactSizeIterator<Item = (&str, &LogicVec)> + Clone>
    {
        self.drives.iter()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.drives.len()
    }

    /// `true` when there are no steps.
    pub fn is_empty(&self) -> bool {
        self.drives.is_empty()
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
        let names = inputs.iter().map(|(name, _)| name);
        let drives = StepTable::dense(names, 1 << total, |pattern, port| {
            // Each input takes the pattern bits above the inputs before it.
            let shift: usize = inputs[..port].iter().map(|(_, w)| w).sum();
            let w = inputs[port].1;
            let val = (pattern as u64 >> shift) & ((1u64 << w) - 1).max(1);
            LogicVec::from_u64(w, val)
        });
        Stimulus::new(None, drives)
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
        for step in s.steps() {
            let [(_, a), (_, b)] = step.collect::<Vec<_>>()[..] else {
                panic!("two drives per step");
            };
            assert!(seen.insert((a.to_u64().unwrap(), b.to_u64().unwrap())));
        }
        assert_eq!(s.drives().ports(), ["a", "b"]);
    }

    #[test]
    fn exhaustive_matches_its_named_form() {
        let inputs = [("a".to_string(), 2), ("b".to_string(), 1)];
        let s = Stimulus::exhaustive(&inputs);
        let named: Vec<Vec<(String, LogicVec)>> = s
            .steps()
            .map(|step| step.map(|(n, v)| (n.to_string(), v.clone())).collect())
            .collect();
        assert_eq!(Stimulus::combinational(named), s);
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn exhaustive_rejects_wide() {
        let _ = Stimulus::exhaustive(&[("a".into(), 17)]);
    }

    #[test]
    fn constructors() {
        let c = Stimulus::clocked("clk", [Vec::<Drive>::new()]);
        assert_eq!(c.clock(), Some("clk"));
        assert!(!c.is_empty());
        assert!(Stimulus::default().is_empty());
    }
}
