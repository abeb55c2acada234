//! The open lint-rule registry: a kind of the generic `janus_simcore`
//! [`Registry`], like every other named plug-in, so downstream crates add
//! or override rules without touching `janus-lint`.

use crate::rules::{self, Diagnostic, LintConfig};
use crate::SourceFile;
use janus_simcore::registry::{Registry, RegistryKind};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// An object-safe lint rule: a named single-pass check over one file.
pub trait LintRule: Send + Sync {
    /// Registry key (`janus list` name, directive name, baseline key).
    fn name(&self) -> &str;
    /// One-line description for `janus list`.
    fn describe(&self) -> &str;
    /// Append findings for one file. Suppression (directives, baseline) is
    /// the driver's job; rules report every syntactic hit.
    fn check(&self, file: &SourceFile, config: &LintConfig, out: &mut Vec<Diagnostic>);
}

/// The lint-rule kind of the generic [`Registry`].
pub struct Rules;

impl RegistryKind for Rules {
    type Entry = dyn LintRule;
    const KIND: &'static str = "lint rule";

    fn name(rule: &dyn LintRule) -> &str {
        rule.name()
    }

    /// The five built-in rules, in reporting order.
    fn builtins(registry: &mut Registry<Self>) {
        let builtin =
            |name: &'static str,
             describe: &'static str,
             check: fn(&SourceFile, &LintConfig, &mut Vec<Diagnostic>)| {
                Arc::new(FnRule {
                    name: name.to_string(),
                    describe: describe.to_string(),
                    check: Box::new(check),
                }) as Arc<dyn LintRule>
            };
        registry.register(builtin(
            "nondeterminism",
            "wall-clock/env reads, and HashMap/HashSet in simulation-state crates",
            rules::nondeterminism,
        ));
        registry.register(builtin(
            "hot-path-alloc",
            "allocation-shaped calls inside the configured hot-path functions",
            rules::hot_path_alloc,
        ));
        registry.register(builtin(
            "unwrap-discipline",
            "no .unwrap()/.expect() in non-test library code",
            rules::unwrap_discipline,
        ));
        registry.register(builtin(
            "float-cmp",
            "no ==/!= against float literals",
            rules::float_cmp,
        ));
        registry.register(builtin(
            "emit-discipline",
            "observer records constructed only through emit!",
            rules::emit_discipline,
        ));
    }
}

/// Ordered, open registry of lint rules: the generic [`Registry`] (which it
/// dereferences to for `register`, `get`, `names`, …) plus the rule
/// descriptions and the per-file driver.
///
/// Order is respected everywhere rules are enumerated (`janus list`,
/// diagnostics of one line), and `register` replaces an existing rule *in
/// place* so overriding a built-in keeps its position.
#[derive(Clone, Debug)]
pub struct LintRegistry(Registry<Rules>);

impl Default for LintRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl Deref for LintRegistry {
    type Target = Registry<Rules>;

    fn deref(&self) -> &Registry<Rules> {
        &self.0
    }
}

impl DerefMut for LintRegistry {
    fn deref_mut(&mut self) -> &mut Registry<Rules> {
        &mut self.0
    }
}

impl LintRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        LintRegistry(Registry::new())
    }

    /// The five built-in rules, in reporting order.
    pub fn with_builtins() -> Self {
        LintRegistry(Registry::with_builtins())
    }

    /// Register a closure-based rule.
    pub fn register_fn<F>(&mut self, name: impl Into<String>, describe: impl Into<String>, check: F)
    where
        F: Fn(&SourceFile, &LintConfig, &mut Vec<Diagnostic>) + Send + Sync + 'static,
    {
        self.register(Arc::new(FnRule {
            name: name.into(),
            describe: describe.into(),
            check: Box::new(check),
        }));
    }

    /// `(name, description)` pairs, in order.
    pub fn catalog(&self) -> Vec<(&str, &str)> {
        self.iter().map(|r| (r.name(), r.describe())).collect()
    }

    /// Run every rule over one file, in registry order.
    pub fn check_file(&self, file: &SourceFile, config: &LintConfig) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for rule in self.iter() {
            rule.check(file, config, &mut out);
        }
        out
    }
}

struct FnRule {
    name: String,
    describe: String,
    #[allow(clippy::type_complexity)]
    check: Box<dyn Fn(&SourceFile, &LintConfig, &mut Vec<Diagnostic>) + Send + Sync>,
}

impl LintRule for FnRule {
    fn name(&self) -> &str {
        &self.name
    }

    fn describe(&self) -> &str {
        &self.describe
    }

    fn check(&self, file: &SourceFile, config: &LintConfig, out: &mut Vec<Diagnostic>) {
        (self.check)(file, config, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_register_in_reporting_order() {
        let registry = LintRegistry::with_builtins();
        assert_eq!(
            registry.names(),
            vec![
                "nondeterminism",
                "hot-path-alloc",
                "unwrap-discipline",
                "float-cmp",
                "emit-discipline",
            ]
        );
        assert_eq!(registry.len(), 5);
        assert!(!registry.is_empty());
        assert!(registry.get("float-cmp").is_some());
        assert!(registry.ensure_known("float-cmp").is_ok());
        let err = registry.ensure_known("tabs-vs-spaces").unwrap_err();
        assert!(err.contains("unknown lint rule `tabs-vs-spaces`"), "{err}");
        assert!(err.contains("nondeterminism"), "{err}");
        let shown = format!("{registry:?}");
        assert!(shown.contains("emit-discipline"), "{shown}");
    }

    #[test]
    fn custom_rules_append_and_overrides_keep_position() {
        let mut registry = LintRegistry::with_builtins();
        registry.register_fn("no-todo", "flags TODO comments", |file, _config, out| {
            for (i, t) in file.tokens.iter().enumerate() {
                if file.token_text(i).contains("TODO") {
                    out.push(Diagnostic {
                        rule: "no-todo".into(),
                        path: file.path.clone(),
                        line: t.line,
                        col: t.col,
                        message: "unfinished work".into(),
                    });
                }
            }
        });
        assert_eq!(registry.len(), 6);
        assert_eq!(registry.names()[5], "no-todo");
        let file = SourceFile::parse("crates/x/src/a.rs", "// TODO: later\nfn f() {}\n").unwrap();
        let hits = registry.check_file(&file, &LintConfig::workspace_default());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "no-todo");
        assert_eq!(
            hits[0].render(),
            "crates/x/src/a.rs:1:1: no-todo: unfinished work"
        );

        // Replacing a built-in keeps its slot.
        registry.register_fn("float-cmp", "stricter float rule", |_f, _c, _o| {});
        assert_eq!(registry.names()[3], "float-cmp");
        assert_eq!(
            registry.get("float-cmp").unwrap().describe(),
            "stricter float rule"
        );
        assert_eq!(registry.len(), 6);
    }
}
