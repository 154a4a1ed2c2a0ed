use std::collections::HashMap;

use crate::Code;

/// An order-preserving interner mapping raw string values to dense codes.
///
/// The SWOPE paper assumes every attribute's values lie in `[1, u_alpha]`
/// after "a simple one-to-one match preprocessing". `Dictionary` is that
/// preprocessing: the first distinct value observed receives code 0, the
/// next code 1, and so on, so codes are always dense in `0..len()`.
///
/// # Example
///
/// ```
/// use swope_columnar::Dictionary;
///
/// let mut d = Dictionary::new();
/// assert_eq!(d.intern("red"), 0);
/// assert_eq!(d.intern("blue"), 1);
/// assert_eq!(d.intern("red"), 0); // stable
/// assert_eq!(d.decode(1), Some("blue"));
/// assert_eq!(d.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dictionary {
    by_value: HashMap<String, Code>,
    by_code: Vec<String>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with space reserved for `n` distinct values.
    pub fn with_capacity(n: usize) -> Self {
        Self { by_value: HashMap::with_capacity(n), by_code: Vec::with_capacity(n) }
    }

    /// Returns the code for `value`, inserting it if unseen.
    pub fn intern(&mut self, value: &str) -> Code {
        if let Some(&c) = self.by_value.get(value) {
            return c;
        }
        let code = self.by_code.len() as Code;
        self.by_value.insert(value.to_owned(), code);
        self.by_code.push(value.to_owned());
        code
    }

    /// Returns the code for `value` if it has been interned.
    pub fn lookup(&self, value: &str) -> Option<Code> {
        self.by_value.get(value).copied()
    }

    /// Returns the raw value for `code`, if `code < len()`.
    pub fn decode(&self, code: Code) -> Option<&str> {
        self.by_code.get(code as usize).map(String::as_str)
    }

    /// Number of distinct values interned so far (the support size).
    pub fn len(&self) -> usize {
        self.by_code.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.by_code.is_empty()
    }

    /// Iterates over `(code, value)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (Code, &str)> {
        self.by_code.iter().enumerate().map(|(i, v)| (i as Code, v.as_str()))
    }

    /// Rebuilds a dictionary from its code-ordered value list.
    ///
    /// Used by the snapshot reader. Duplicate values are rejected by
    /// returning `None` since they would break the bijection invariant.
    pub fn from_values(values: Vec<String>) -> Option<Self> {
        let mut by_value = HashMap::with_capacity(values.len());
        for (i, v) in values.iter().enumerate() {
            if by_value.insert(v.clone(), i as Code).is_some() {
                return None;
            }
        }
        Some(Self { by_value, by_code: values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_dense_and_stable() {
        let mut d = Dictionary::new();
        let a = d.intern("a");
        let b = d.intern("b");
        let c = d.intern("c");
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(d.intern("b"), 1);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn decode_round_trips() {
        let mut d = Dictionary::new();
        for v in ["x", "y", "z"] {
            let c = d.intern(v);
            assert_eq!(d.decode(c), Some(v));
        }
        assert_eq!(d.decode(99), None);
    }

    #[test]
    fn lookup_without_insert() {
        let mut d = Dictionary::new();
        d.intern("present");
        assert_eq!(d.lookup("present"), Some(0));
        assert_eq!(d.lookup("absent"), None);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn from_values_rejects_duplicates() {
        assert!(Dictionary::from_values(vec!["a".into(), "a".into()]).is_none());
        let d = Dictionary::from_values(vec!["a".into(), "b".into()]).unwrap();
        assert_eq!(d.lookup("b"), Some(1));
    }

    #[test]
    fn iter_is_in_code_order() {
        let mut d = Dictionary::new();
        d.intern("first");
        d.intern("second");
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "first"), (1, "second")]);
    }

    #[test]
    fn empty_behaviour() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.decode(0), None);
    }
}
