//! One ordered, open registry for every named plug-in kind.
//!
//! Policies, arrival scenarios, autoscalers, admission policies, fault
//! injectors, observers, experiments and lint rules are all addressed by
//! name. [`Registry`] owns the mechanics they share, once: registration
//! order is preserved (it drives `janus list`, sweep and report ordering);
//! registering an existing name replaces that entry in place, keeping its
//! position; and an unknown name fails with one message listing what is
//! registered.
//!
//! A kind plugs in through [`RegistryKind`] (what an entry is, its name and
//! its built-ins) and, when entries build one value per run from a context,
//! [`BuildKind`] (the context, the output and the closure shorthand). Each
//! kind's crate then exposes the registry as a type alias, e.g.
//! `pub type PolicyRegistry = Registry<Policies>;`.

use std::fmt;
use std::sync::Arc;

/// One kind of named plug-in: what its [`Registry`] stores, how an entry is
/// named, and which entries come built in.
pub trait RegistryKind: Sized + 'static {
    /// The stored entry, usually a `dyn` factory trait object.
    type Entry: ?Sized + Send + Sync;

    /// The kind's word in errors: ``unknown <KIND> `name`; registered: …``.
    const KIND: &'static str;

    /// The name `entry` is registered (and reported) under.
    fn name(entry: &Self::Entry) -> &str;

    /// Register the built-in entries, in their canonical order.
    fn builtins(registry: &mut Registry<Self>);
}

/// A kind whose entries build one value per run from a context.
pub trait BuildKind: RegistryKind {
    /// What a build call passes to the entry.
    type Ctx<'a>;

    /// What a build call returns.
    type Output;

    /// Check the context before the name is resolved. Accepts everything
    /// by default.
    fn validate(_ctx: &Self::Ctx<'_>) -> Result<(), String> {
        Ok(())
    }

    /// Build one value from `entry`.
    fn build(entry: &Self::Entry, ctx: &Self::Ctx<'_>) -> Result<Self::Output, String>;

    /// Wrap a closure as an entry registered under `name`.
    fn from_fn<F>(name: String, build: F) -> Arc<Self::Entry>
    where
        F: Fn(&Self::Ctx<'_>) -> Result<Self::Output, String> + Send + Sync + 'static;
}

/// An ordered, open registry of named entries of one [`RegistryKind`].
pub struct Registry<K: RegistryKind> {
    entries: Vec<Arc<K::Entry>>,
}

impl<K: RegistryKind> Registry<K> {
    /// An empty registry (no built-ins).
    pub fn new() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }

    /// A registry pre-loaded with the kind's built-ins.
    pub fn with_builtins() -> Self {
        let mut registry = Self::new();
        K::builtins(&mut registry);
        registry
    }

    /// Register an entry. Replaces any earlier entry with the same name
    /// (keeping its position), otherwise appends.
    pub fn register(&mut self, entry: Arc<K::Entry>) -> &mut Self {
        match self
            .entries
            .iter()
            .position(|e| K::name(e) == K::name(&entry))
        {
            Some(i) => self.entries[i] = entry,
            None => self.entries.push(entry),
        }
        self
    }

    /// Look an entry up by its registered name.
    pub fn get(&self, name: &str) -> Option<Arc<K::Entry>> {
        self.entries.iter().find(|e| K::name(e) == name).cloned()
    }

    /// Check that `name` is registered, with an error listing the
    /// registered names otherwise.
    pub fn ensure_known(&self, name: &str) -> Result<(), String> {
        self.resolve(name).map(|_| ())
    }

    /// The entry registered under `name`, or the unknown-name error.
    pub fn resolve(&self, name: &str) -> Result<&K::Entry, String> {
        match self.entries.iter().find(|e| K::name(e) == name) {
            Some(entry) => Ok(entry),
            None => Err(format!(
                "unknown {} `{name}`; registered: {}",
                K::KIND,
                self.names().join(", ")
            )),
        }
    }

    /// The entries, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &K::Entry> {
        self.entries.iter().map(|e| &**e)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.iter().map(K::name).collect()
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<K: BuildKind> Registry<K> {
    /// Closure shorthand for [`register`](Self::register).
    pub fn register_fn<F>(&mut self, name: impl Into<String>, build: F) -> &mut Self
    where
        F: Fn(&K::Ctx<'_>) -> Result<K::Output, String> + Send + Sync + 'static,
    {
        self.register(K::from_fn(name.into(), build))
    }

    /// Build the named entry, with an informative error for invalid
    /// contexts or unknown names (checked in that order).
    pub fn build(&self, name: &str, ctx: &K::Ctx<'_>) -> Result<K::Output, String> {
        K::validate(ctx)?;
        K::build(self.resolve(name)?, ctx)
    }
}

impl<K: RegistryKind> Default for Registry<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: RegistryKind> Clone for Registry<K> {
    fn clone(&self) -> Self {
        Registry {
            entries: self.entries.clone(),
        }
    }
}

impl<K: RegistryKind> fmt::Debug for Registry<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("kind", &K::KIND)
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal kind: named closures from a `u32` context to a `u32`.
    struct Numbers;

    type NumberFn = dyn Fn(&u32) -> Result<u32, String> + Send + Sync;

    struct Number {
        name: String,
        build: Box<NumberFn>,
    }

    impl RegistryKind for Numbers {
        type Entry = Number;
        const KIND: &'static str = "number";

        fn name(entry: &Number) -> &str {
            &entry.name
        }

        fn builtins(registry: &mut Registry<Self>) {
            registry.register_fn("one", |x| Ok(x + 1));
            registry.register_fn("two", |x| Ok(x + 2));
            registry.register_fn("three", |x| Ok(x + 3));
        }
    }

    impl BuildKind for Numbers {
        type Ctx<'a> = u32;
        type Output = u32;

        fn validate(ctx: &u32) -> Result<(), String> {
            if *ctx == 0 {
                return Err("context must be positive".into());
            }
            Ok(())
        }

        fn build(entry: &Number, ctx: &u32) -> Result<u32, String> {
            (entry.build)(ctx)
        }

        fn from_fn<F>(name: String, build: F) -> Arc<Number>
        where
            F: Fn(&u32) -> Result<u32, String> + Send + Sync + 'static,
        {
            Arc::new(Number {
                name,
                build: Box::new(build),
            })
        }
    }

    #[test]
    fn order_replacement_lookup_and_unknown_names() {
        let mut registry = Registry::<Numbers>::with_builtins();
        assert_eq!(registry.names(), vec!["one", "two", "three"]);
        assert_eq!(registry.len(), 3);
        assert!(!registry.is_empty());
        assert!(Registry::<Numbers>::new().is_empty());

        // Appending keeps earlier entries in order.
        registry.register(Numbers::from_fn("four".into(), |x| Ok(x + 4)));
        assert_eq!(registry.names(), vec!["one", "two", "three", "four"]);
        assert_eq!(registry.build("four", &10), Ok(14));

        // Re-registering a name replaces the entry in its original slot.
        registry.register_fn("two", |x| Ok(x * 2));
        assert_eq!(registry.names(), vec!["one", "two", "three", "four"]);
        assert_eq!(registry.build("two", &10), Ok(20));

        // A miss is `None`, not an error.
        assert!(registry.get("five").is_none());
        assert!(registry.get("three").is_some());
        registry.ensure_known("three").unwrap();

        // The unknown-name error lists the registered names in order; the
        // context is checked first.
        let err = registry.ensure_known("five").unwrap_err();
        assert_eq!(
            err,
            "unknown number `five`; registered: one, two, three, four"
        );
        assert_eq!(registry.build("five", &1), Err(err));
        assert_eq!(
            registry.build("five", &0),
            Err("context must be positive".to_string())
        );
        let shown = format!("{registry:?}");
        assert!(
            shown.contains("number") && shown.contains("four"),
            "{shown}"
        );
    }
}
