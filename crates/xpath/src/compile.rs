//! Compilation of [`XPath`] ASTs into symbol-resolved forms.
//!
//! A [`CompiledXPath`] is the AST with its tag tests and attribute names
//! resolved to interned [`Sym`]s ([`aw_dom::interner`]). Attribute values
//! stay strings: each engine resolves them per document
//! (`DocIndex::attr_value_id`), and a rule's values are often per-record
//! hrefs and ids, which must not grow the leaked global table. Compiled
//! steps are plain `Eq + Hash` data, which is what lets
//! [`crate::batch::BatchEvaluator`] arrange a candidate set into a
//! shared-prefix trie.

use crate::ast::{Axis, NodeTest, Predicate, Step, XPath};
use aw_dom::{intern, Sym};
use std::sync::Arc;

/// A node test with the tag resolved to a symbol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CompiledTest {
    /// A specific element tag.
    Tag(Sym),
    /// `*` — any element.
    AnyElement,
    /// `text()` — text nodes.
    Text,
}

/// A predicate with attribute names resolved to symbols.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CompiledPred {
    /// `[@name='value']`.
    Attr {
        /// Interned attribute name.
        name: Sym,
        /// Attribute value, resolved per document like the document's
        /// own values (never globally interned).
        value: Arc<str>,
    },
    /// `[k]`, 1-based among same-test siblings. Kept at full `u64` width:
    /// truncating would make absurd positions like `[4294967297]` wrap
    /// around and *match*, diverging from the reference interpreter.
    Position(u64),
}

/// One compiled location step.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CompiledStep {
    /// Axis of the step.
    pub axis: Axis,
    /// Symbol-resolved node test.
    pub test: CompiledTest,
    /// Symbol-resolved predicates, in source order.
    pub predicates: Vec<CompiledPred>,
}

/// A compiled location path, ready for the indexed/batch engines.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct CompiledXPath {
    /// Compiled steps in order.
    pub steps: Vec<CompiledStep>,
}

impl CompiledXPath {
    /// Compiles an AST. Interning tags and attribute names and copying
    /// attribute values are the only cost; compiling the same path twice
    /// yields identical (and `Eq`-comparable) values.
    pub fn compile(path: &XPath) -> CompiledXPath {
        CompiledXPath {
            steps: path.steps.iter().map(compile_step).collect(),
        }
    }
}

impl From<&XPath> for CompiledXPath {
    fn from(path: &XPath) -> Self {
        CompiledXPath::compile(path)
    }
}

fn compile_step(step: &Step) -> CompiledStep {
    CompiledStep {
        axis: step.axis,
        test: match &step.test {
            NodeTest::Tag(t) => CompiledTest::Tag(intern(t)),
            NodeTest::AnyElement => CompiledTest::AnyElement,
            NodeTest::Text => CompiledTest::Text,
        },
        predicates: step
            .predicates
            .iter()
            .map(|p| match p {
                Predicate::Attr { name, value } => CompiledPred::Attr {
                    name: intern(name),
                    value: Arc::from(value.as_str()),
                },
                Predicate::Position(k) => CompiledPred::Position(*k as u64),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_xpath;

    #[test]
    fn compilation_is_stable_and_comparable() {
        let xp = parse_xpath("//div[@class='content']/table[1]/tr/td[2]/text()").unwrap();
        let a = CompiledXPath::compile(&xp);
        let b = CompiledXPath::compile(&xp);
        assert_eq!(a, b);
        assert_eq!(a.steps.len(), 5);
        assert_eq!(a.steps[0].test, CompiledTest::Tag(intern("div")));
        assert_eq!(
            a.steps[0].predicates,
            vec![CompiledPred::Attr {
                name: intern("class"),
                value: Arc::from("content")
            }]
        );
        assert_eq!(a.steps[1].predicates, vec![CompiledPred::Position(1)]);
        assert_eq!(a.steps[4].test, CompiledTest::Text);
    }

    #[test]
    fn shared_prefixes_compile_to_equal_steps() {
        let a = CompiledXPath::compile(&parse_xpath("//div/tr/td/u/text()").unwrap());
        let b = CompiledXPath::compile(&parse_xpath("//div/tr/td/text()").unwrap());
        assert_eq!(
            a.steps[..3],
            b.steps[..3],
            "common prefix must compare equal"
        );
        assert_ne!(a.steps[3], b.steps[3]);
    }

    #[test]
    fn attribute_values_are_not_interned() {
        let value = "compile-test-fresh-value-5c1e";
        let xp = parse_xpath(&format!("//a[@href='{value}']/text()")).unwrap();
        let compiled = CompiledXPath::compile(&xp);
        assert_eq!(aw_dom::interner::lookup(value), None);
        let doc = aw_dom::parse(&format!("<a href='{value}'>x</a><a href='y'>z</a>"));
        assert_eq!(crate::evaluate_compiled(&compiled, &doc).len(), 1);
        assert_eq!(aw_dom::interner::lookup(value), None);
    }
}
