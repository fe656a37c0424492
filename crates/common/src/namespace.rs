//! Namespaces: interned tenant labels attached to the public query id space.
//!
//! A [`Namespace`] is a `u16` handle into a string registry. Queries carry
//! the handle (two bytes, `Copy`), the registry owns the strings, and every
//! layer above — retention policies, per-tenant stats, bulk forget — keys on
//! the handle. Interning keeps the per-query footprint flat no matter how
//! long tenant names get, and makes namespace equality a single integer
//! compare on the hot registration/expiry paths.
//!
//! Handle 0 is always the **default namespace** (the empty string): queries
//! registered without an explicit namespace land there, which is what makes
//! the lifecycle layer back-compatible — a monitor that never names a
//! namespace behaves exactly as before.

use crate::FxHashMap;
use serde::{Deserialize, Serialize};

/// Interned namespace handle. `Namespace::DEFAULT` (handle 0, the empty
/// string) is where queries registered without options live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Namespace(pub u16);

impl Namespace {
    /// The default namespace: handle 0, the empty string.
    pub const DEFAULT: Namespace = Namespace(0);

    /// The raw index, for use as a dense array offset.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Namespace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ns{}", self.0)
    }
}

/// The string side of the interning: name → handle and back.
///
/// Slot 0 is pre-seeded with the empty string so [`Namespace::DEFAULT`] is
/// always resolvable. Registration is append-only — namespaces are never
/// forgotten even when all their queries are, so a handle embedded in a
/// snapshot or a stats report stays meaningful for the process lifetime.
#[derive(Debug, Clone)]
pub struct NamespaceRegistry {
    names: Vec<String>,
    handles: FxHashMap<String, Namespace>,
}

impl Default for NamespaceRegistry {
    fn default() -> Self {
        let mut handles = FxHashMap::default();
        handles.insert(String::new(), Namespace::DEFAULT);
        NamespaceRegistry { names: vec![String::new()], handles }
    }
}

impl NamespaceRegistry {
    /// How many distinct namespaces fit, the default one included.
    pub const CAPACITY: usize = 1 << 16;

    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a name, allocating a handle on first sight. The empty string
    /// always interns to [`Namespace::DEFAULT`].
    ///
    /// # Panics
    /// On a new name once [`CAPACITY`](Self::CAPACITY) names are interned —
    /// the handle space is a `u16` by design (two bytes per query), and
    /// tenant counts beyond that belong in separate monitors.
    pub fn intern(&mut self, name: &str) -> Namespace {
        if let Some(ns) = self.find(name) {
            return ns;
        }
        let handle = u16::try_from(self.names.len()).expect("namespace registry full (u16 space)");
        self.names.push(name.to_string());
        self.handles.insert(name.to_string(), Namespace(handle));
        Namespace(handle)
    }

    /// Look up a name without interning it.
    pub fn find(&self, name: &str) -> Option<Namespace> {
        self.handles.get(name).copied()
    }

    /// The name behind a handle. `None` for handles this registry never
    /// allocated.
    pub fn name(&self, ns: Namespace) -> Option<&str> {
        self.names.get(ns.index()).map(String::as_str)
    }

    /// Number of interned namespaces, the default one included.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Never true: slot 0 always holds the default namespace.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All interned names in handle order (index = handle).
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_namespace_is_the_empty_string_at_zero() {
        let mut reg = NamespaceRegistry::new();
        assert_eq!(reg.intern(""), Namespace::DEFAULT);
        assert_eq!(reg.find(""), Some(Namespace::DEFAULT));
        assert_eq!(reg.name(Namespace::DEFAULT), Some(""));
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut reg = NamespaceRegistry::new();
        let a = reg.intern("alerts");
        let b = reg.intern("feeds");
        assert_eq!((a, b), (Namespace(1), Namespace(2)));
        assert_eq!(reg.intern("alerts"), a, "re-interning returns the same handle");
        assert_eq!(reg.find("feeds"), Some(b));
        assert_eq!(reg.find("unknown"), None);
        assert_eq!(reg.name(b), Some("feeds"));
        assert_eq!(reg.name(Namespace(9)), None);
        assert_eq!(reg.names(), &["".to_string(), "alerts".to_string(), "feeds".to_string()]);
    }

    #[test]
    fn a_full_registry_still_interns_known_names() {
        let mut reg = NamespaceRegistry::new();
        for i in 1..NamespaceRegistry::CAPACITY {
            reg.intern(&format!("t{i}"));
        }
        assert_eq!(reg.len(), NamespaceRegistry::CAPACITY);
        assert_eq!(reg.intern("t65535"), Namespace(u16::MAX));
        assert_eq!(reg.intern(""), Namespace::DEFAULT);
    }

    #[test]
    fn handles_are_two_bytes() {
        assert_eq!(std::mem::size_of::<Namespace>(), 2);
    }
}
