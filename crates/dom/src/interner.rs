//! Process-global string interning for tag and attribute names.
//!
//! The wrapper pipeline compares the same few dozen strings — tag names,
//! attribute names, class values — millions of times: every xpath step
//! test, every attribute predicate, every feature extraction. Interning
//! maps each distinct string to a dense [`Sym`] (`u32`) once, after which
//! every comparison is an integer compare and every per-document tag
//! lookup can be a posting-list probe instead of a string scan.
//!
//! The table is process-global so that symbols are stable across
//! documents: a [`crate::index::DocIndex`] built for one page and a
//! compiled xpath built from another agree on what `td` means. It is
//! guarded by an `RwLock`: lookups of already-known strings (the
//! overwhelmingly common case once the first few pages are indexed)
//! take the shared read path, so parallel index builds do not contend.
//!
//! Scope discipline: only **bounded** vocabularies belong here — tag
//! names and attribute names. Attribute *values* (hrefs, ids — unbounded
//! in a crawl, and in the rules learned from it) are interned
//! per-`DocIndex` instead, and compiled xpaths keep theirs as strings,
//! precisely so this leaked global table cannot grow without bound.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned string: a dense process-global identifier.
///
/// Symbols compare equal iff the strings they intern are byte-equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// The interned string.
    pub fn as_str(self) -> &'static str {
        resolve(self)
    }
}

impl std::fmt::Debug for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}({})", self.0, self.as_str())
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

struct Interner {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(Interner {
            by_name: HashMap::with_capacity(256),
            names: Vec::with_capacity(256),
        })
    })
}

/// Interns `name`, returning its stable symbol.
///
/// The first sighting of each distinct string leaks one copy of it —
/// intern only bounded vocabularies (see the module docs). Known
/// strings resolve under the shared read lock.
pub fn intern(name: &str) -> Sym {
    if let Some(&id) = table().read().expect("interner lock").by_name.get(name) {
        return Sym(id);
    }
    let mut t = table().write().expect("interner lock");
    // Double-check: another thread may have interned it between locks.
    if let Some(&id) = t.by_name.get(name) {
        return Sym(id);
    }
    let id = t.names.len() as u32;
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    t.names.push(leaked);
    t.by_name.insert(leaked, id);
    Sym(id)
}

/// Interns `name`, returning the symbol *and* the interned `'static`
/// copy of the string — one lock acquisition where [`intern`] followed
/// by [`resolve`] would take two. Used by hot per-element paths (the
/// streaming parse→index builder keeps the returned `&'static str` on
/// its open-element stack instead of cloning the tag).
pub fn intern_resolved(name: &str) -> (Sym, &'static str) {
    if let Some((&leaked, &id)) = table()
        .read()
        .expect("interner lock")
        .by_name
        .get_key_value(name)
    {
        return (Sym(id), leaked);
    }
    let mut t = table().write().expect("interner lock");
    // Double-check: another thread may have interned it between locks.
    if let Some((&leaked, &id)) = t.by_name.get_key_value(name) {
        return (Sym(id), leaked);
    }
    let id = t.names.len() as u32;
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    t.names.push(leaked);
    t.by_name.insert(leaked, id);
    (Sym(id), leaked)
}

/// The symbol of `name` if it was ever interned; `None` otherwise.
///
/// Useful for lookups that must not grow the table (e.g. compiling an
/// xpath whose tag never occurs in any document: the step can only ever
/// select nothing).
pub fn lookup(name: &str) -> Option<Sym> {
    table()
        .read()
        .expect("interner lock")
        .by_name
        .get(name)
        .copied()
        .map(Sym)
}

/// The string a symbol interns.
pub fn resolve(sym: Sym) -> &'static str {
    table().read().expect("interner lock").names[sym.0 as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_distinct() {
        let a = intern("td");
        let b = intern("td");
        let c = intern("tr");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "td");
        assert_eq!(c.as_str(), "tr");
    }

    #[test]
    fn lookup_does_not_grow_the_table() {
        let before = intern("div"); // ensure present
        assert_eq!(lookup("div"), Some(before));
        let name = "никогда-not-a-tag-a9f3e2";
        if lookup(name).is_none() {
            // Still absent after lookup.
            assert_eq!(lookup(name), None);
        }
    }

    #[test]
    fn symbols_are_ordered_by_first_sighting() {
        let x = intern("zz-first-ab12");
        let y = intern("zz-second-ab12");
        assert!(x.0 < y.0);
    }
}
