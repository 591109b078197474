//! The port-indexed step layout that stimuli and benches share.

use mage_logic::LogicVec;

/// Per-step `(port, value)` entries over one port table: the storage of
/// a [`crate::Stimulus`]'s drives and of a [`crate::Testbench`]'s checks.
///
/// Each port is named once, in a table kept in first-use order. Every
/// step's entries sit in one flat array as `(port index, value)` pairs,
/// and step `i` owns the entries from the end of step `i − 1` to its own
/// end. Building a table allocates per port, not per step, and reading a
/// step borrows a slice. Because the table follows first use, equal
/// step lists build equal tables, so the derived `==` and `Hash`
/// compare contents.
///
/// [`crate::Stimulus::combinational`], [`crate::Stimulus::clocked`] and
/// [`crate::Testbench::from_steps`] intern per-step `(name, value)`
/// lists into tables; [`StepTable::dense`] builds a table whose every
/// step has an entry for every port.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct StepTable {
    /// Port names, each once, in the order the steps first use them.
    ports: Vec<String>,
    /// Every step's `(port index, value)` entries, step after step.
    entries: Vec<(usize, LogicVec)>,
    /// Where each step's entries end in `entries`.
    ends: Vec<usize>,
}

impl StepTable {
    /// An empty table with room for `steps` steps of `entries` entries
    /// in all.
    pub(crate) fn with_capacity(steps: usize, entries: usize) -> Self {
        StepTable {
            ports: Vec::new(),
            entries: Vec::with_capacity(entries),
            ends: Vec::with_capacity(steps),
        }
    }

    /// Intern per-step `(name, value)` lists: each name becomes a port
    /// the first time a step uses it.
    pub(crate) fn from_named<S: AsRef<str>>(
        steps: impl IntoIterator<Item = impl IntoIterator<Item = (S, LogicVec)>>,
    ) -> Self {
        let mut table = StepTable::default();
        for step in steps {
            table.push_step(step);
        }
        table
    }

    /// A table whose `steps` steps each hold one entry per port, in the
    /// order `ports` names them (distinct names): step `i`'s entry for
    /// port `p` is `value(i, p)`, computed step by step, port by port.
    pub fn dense<S: AsRef<str>>(
        ports: impl IntoIterator<Item = S>,
        steps: usize,
        mut value: impl FnMut(usize, usize) -> LogicVec,
    ) -> Self {
        if steps == 0 {
            return StepTable::default();
        }
        let ports: Vec<String> = ports.into_iter().map(|p| p.as_ref().to_string()).collect();
        let mut table = StepTable::with_capacity(steps, steps * ports.len());
        table.ports = ports;
        for step in 0..steps {
            for port in 0..table.ports.len() {
                table.push(port, value(step, port));
            }
            table.end_step();
        }
        table
    }

    /// Append one step of `(name, value)` entries, interning its names.
    pub(crate) fn push_step<S: AsRef<str>>(
        &mut self,
        step: impl IntoIterator<Item = (S, LogicVec)>,
    ) {
        for (name, value) in step {
            let port = self.port(name.as_ref());
            self.push(port, value);
        }
        self.end_step();
    }

    /// The index of port `name`, appended to the table when it is new.
    /// Callers name ports as the steps first use them, which keeps the
    /// table in first-use order.
    pub(crate) fn port(&mut self, name: &str) -> usize {
        match self.ports.iter().position(|p| p == name) {
            Some(port) => port,
            None => {
                self.ports.push(name.to_string());
                self.ports.len() - 1
            }
        }
    }

    /// Append an entry for `port` to the open step.
    pub(crate) fn push(&mut self, port: usize, value: LogicVec) {
        debug_assert!(port < self.ports.len(), "port {port} is not in the table");
        self.entries.push((port, value));
    }

    /// Close the open step; a step may hold no entries.
    pub(crate) fn end_step(&mut self) {
        self.ends.push(self.entries.len());
    }

    /// Number of steps.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when there are no steps.
    pub(crate) fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Number of entries over all steps.
    pub(crate) fn total(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// The port table, in first-use order.
    pub(crate) fn ports(&self) -> &[String] {
        &self.ports
    }

    /// Step `step`'s `(port index, value)` entries.
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    pub(crate) fn entries(&self, step: usize) -> &[(usize, LogicVec)] {
        let start = step.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.entries[start..self.ends[step]]
    }

    /// Step `step`'s entries by name: `(port name, value)` in entry
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    pub(crate) fn step(
        &self,
        step: usize,
    ) -> impl ExactSizeIterator<Item = (&str, &LogicVec)> + Clone {
        self.entries(step)
            .iter()
            .map(|(port, value)| (self.ports[*port].as_str(), value))
    }

    /// Every step's entries by name, in step order.
    pub(crate) fn iter(
        &self,
    ) -> impl ExactSizeIterator<Item = impl ExactSizeIterator<Item = (&str, &LogicVec)> + Clone>
    {
        (0..self.len()).map(|step| self.step(step))
    }

    /// The value of entry `entry`, counting over all steps in order.
    pub(crate) fn value_mut(&mut self, entry: usize) -> &mut LogicVec {
        let total = self.total();
        &mut self.entries[..total][entry].1
    }

    /// `true` when every port is used and each is first used after the
    /// ports before it — the invariant equal step lists rely on.
    pub(crate) fn in_first_use_order(&self) -> bool {
        let mut next = 0;
        for &(port, _) in &self.entries {
            if port == next {
                next += 1;
            } else if port > next {
                return false;
            }
        }
        next == self.ports.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> LogicVec {
        LogicVec::from_u64(2, x)
    }

    #[test]
    fn names_each_port_once_and_returns_each_step_as_given() {
        let steps = vec![
            vec![("a", v(0)), ("b", v(1))],
            vec![],
            vec![("b", v(2)), ("c", v(3)), ("a", v(1))],
        ];
        let table = StepTable::from_named(steps.clone());
        assert_eq!(table.ports(), ["a", "b", "c"]);
        assert_eq!((table.len(), table.total()), (3, 5));
        let back: Vec<Vec<(&str, LogicVec)>> = table
            .iter()
            .map(|step| step.map(|(name, value)| (name, value.clone())).collect())
            .collect();
        assert_eq!(back, steps);
        assert!(table.in_first_use_order());
    }

    #[test]
    fn ports_named_out_of_use_order_are_caught() {
        let mut table = StepTable::default();
        let (b, a) = (table.port("b"), table.port("a"));
        table.push(a, v(0));
        table.push(b, v(1));
        table.end_step();
        assert!(!table.in_first_use_order());
        let mut unused = StepTable::default();
        unused.port("a");
        assert!(!unused.in_first_use_order());
    }
}
