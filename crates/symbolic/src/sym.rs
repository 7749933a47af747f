//! Interned symbols (program variables appearing in index expressions).

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// An interned symbol. Cheap to copy, hash and compare; the ordering is the
/// interning order, which is stable within a process and only used to give
/// monomials a canonical form.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

struct Interner {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            by_name: HashMap::new(),
        })
    })
}

/// Intern `name`, returning its symbol. Interning the same name twice yields
/// the same symbol.
pub fn sym(name: &str) -> Sym {
    let mut it = interner().lock().unwrap();
    if let Some(&id) = it.by_name.get(name) {
        return Sym(id);
    }
    let id = it.names.len() as u32;
    it.names.push(name.to_string());
    it.by_name.insert(name.to_string(), id);
    Sym(id)
}

/// The name a symbol was interned under.
pub fn sym_name(s: Sym) -> String {
    interner().lock().unwrap().names[s.0 as usize].clone()
}

impl Sym {
    /// A fresh symbol guaranteed distinct from all previously interned ones,
    /// with a `prefix` for readability in debug output. It is not findable
    /// by name — nothing looks one up, and the interner never frees, so a
    /// by-name entry (the name a second time, plus the map's growth) would
    /// more than double what every compile leaks.
    pub fn fresh(prefix: &str) -> Sym {
        let mut it = interner().lock().unwrap();
        let id = it.names.len() as u32;
        it.names.push(format!("{prefix}#{id}"));
        Sym(id)
    }
}

impl std::fmt::Debug for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", sym_name(*self))
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", sym_name(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(sym("n"), sym("n"));
        assert_ne!(sym("n"), sym("m"));
        assert_eq!(sym_name(sym("n")), "n");
    }

    #[test]
    fn fresh_is_distinct() {
        let a = Sym::fresh("t");
        let b = Sym::fresh("t");
        assert_ne!(a, b);
        assert!(sym_name(a).starts_with("t#"));
        assert_ne!(sym(&sym_name(a)), a, "a fresh symbol has no by-name entry");
    }
}
