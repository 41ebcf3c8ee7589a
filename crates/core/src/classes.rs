//! Interned class identities.
//!
//! Rule-layer code used to carry `&'static str` class names pointing
//! into the compiled-in catalog, which welded every rule set to the
//! binary. A [`ClassTable`] owns the names instead and hands out dense
//! [`ClassId`]s; everything downstream of rule generation (detector,
//! usage, staleness, reports, the serve query plane, signature packs)
//! speaks ids and resolves names only at presentation boundaries. A
//! rule set loaded from a signature pack at runtime is then a
//! first-class citizen — the compiled-in catalog is just the producer
//! of the default pack.

use crate::fasthash::FastMap;

/// A dense interned class identifier, valid only with the
/// [`ClassTable`] that minted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u16);

impl ClassId {
    /// Wire sentinel for "no class" (e.g. an absent hierarchy parent).
    /// Never minted by [`ClassTable::intern`].
    pub const NONE_WIRE: u16 = u16::MAX;
}

/// An interning table of class names: dense ids out, owned names in.
///
/// Ids are assigned in first-intern order, so interning a catalog's
/// classes in catalog order yields stable, reproducible ids — the
/// property the byte-determinate pack format and event stream rely on.
#[derive(Debug, Clone, Default)]
pub struct ClassTable {
    names: Vec<String>,
    index: FastMap<String, ClassId>,
}

impl PartialEq for ClassTable {
    fn eq(&self, other: &Self) -> bool {
        // `index` is derived from `names`; comparing it would be
        // redundant (and hash-map order is irrelevant anyway).
        self.names == other.names
    }
}

impl Eq for ClassTable {}

impl ClassTable {
    /// An empty table.
    pub fn new() -> ClassTable {
        ClassTable::default()
    }

    /// Intern `name`, returning its id (existing or freshly minted).
    ///
    /// # Panics
    /// When the table is full (more than `u16::MAX - 1` classes — far
    /// beyond any real catalog).
    pub fn intern(&mut self, name: &str) -> ClassId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let raw = self.names.len();
        assert!(
            raw < usize::from(ClassId::NONE_WIRE),
            "class table full ({raw} classes)"
        );
        let id = ClassId(raw as u16);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// The id of an already-interned name.
    pub fn id(&self, name: &str) -> Option<ClassId> {
        self.index.get(name).copied()
    }

    /// The name behind `id`.
    ///
    /// # Panics
    /// When `id` was not minted by this table.
    pub fn name(&self, id: ClassId) -> &str {
        &self.names[usize::from(id.0)]
    }

    /// The name behind `id`, `None` for a foreign id.
    pub fn get(&self, id: ClassId) -> Option<&str> {
        self.names.get(usize::from(id.0)).map(String::as_str)
    }

    /// Number of interned classes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (ClassId(i as u16), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = ClassTable::new();
        let a = t.intern("Alexa Enabled");
        let b = t.intern("Fire TV");
        assert_eq!(a, ClassId(0));
        assert_eq!(b, ClassId(1));
        assert_eq!(t.intern("Alexa Enabled"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(a), "Alexa Enabled");
        assert_eq!(t.id("Fire TV"), Some(b));
        assert_eq!(t.id("unknown"), None);
        assert_eq!(t.get(ClassId(9)), None);
    }

    #[test]
    fn iteration_follows_intern_order() {
        let mut t = ClassTable::new();
        for name in ["c", "a", "b"] {
            t.intern(name);
        }
        let order: Vec<&str> = t.iter().map(|(_, n)| n).collect();
        assert_eq!(order, ["c", "a", "b"]);
    }

    #[test]
    fn equality_ignores_the_derived_index() {
        let mut x = ClassTable::new();
        x.intern("a");
        x.intern("b");
        let mut y = ClassTable::new();
        y.intern("a");
        y.intern("b");
        assert_eq!(x, y);
        y.intern("c");
        assert_ne!(x, y);
    }
}
