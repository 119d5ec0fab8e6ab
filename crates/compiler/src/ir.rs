//! The loop-nest intermediate representation.
//!
//! A [`Kernel`] is a sequence of counted loops over arrays of `i64` or
//! `f64` elements. Memory references are explicit ([`MemRef`]) and
//! indexed either affinely in the loop variable (`a[i + d]`, with an
//! optional zero scale for loop-invariant scalars) or *indirectly*
//! through the value of another reference (`c[idx[i]]`, `ptr[a[i]]`) —
//! the unpredictable access patterns of §2.2. This is rich enough to
//! express the paper's Figure 2/3 running example, the Table 2
//! microbenchmark and the six NAS-signature kernels, while keeping
//! classification and tiling analyzable.

use crate::alias::AliasOracle;
use hsim_isa::Words;
use std::collections::HashSet;

/// Index of an array within a kernel.
pub type ArrayId = usize;
/// Index of a memory reference within a loop.
pub type RefId = usize;

/// Element type of an array. Both are 8 bytes wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Elem {
    /// 64-bit signed integer.
    I64,
    /// IEEE double.
    F64,
}

impl Elem {
    /// Element size in bytes.
    pub const BYTES: u64 = 8;
}

/// An array declaration.
#[derive(Clone, Debug)]
pub struct ArrayDecl {
    /// Name (for reports and error messages).
    pub name: String,
    /// Element type.
    pub elem: Elem,
    /// Length in elements.
    pub len: u64,
    /// Set by [`Kernel::shard`] on **read-only** arrays it replicates
    /// whole into every shard (gathered tables): each core's copy holds
    /// the same values at the same addresses, so a machine running the
    /// shards may serve the array from shared cache lines instead of
    /// per-core replicas (`CoherenceMode::Mesi`). Written
    /// replicated-whole arrays (scalar accumulators, scattered
    /// histograms) stay private — they are per-core state a
    /// parallelizing compiler would privatize. Always `false` on
    /// unsharded kernels and on sliced arrays.
    pub shared: bool,
    /// Set by [`KernelBuilder::mark_comm`] on **communication** arrays:
    /// flags, queue slots, locks, barrier words and shared tables that
    /// several cores' kernels deliberately access at the *same*
    /// addresses. Unlike [`ArrayDecl::shared`] (derived by the sharder,
    /// read-only by construction), a comm array may be written — the
    /// whole point is to drive the inter-core protocol's invalidation
    /// and intervention paths — so a machine must either serve it from
    /// directory-tracked shared lines or refuse the run: a comm array
    /// whose layouts diverge across the participating kernels is a hard
    /// [`ShardError::CommLayoutDiverged`], never a silent replication
    /// fallback (a wrong-timing run masquerading as communication).
    pub comm: bool,
}

/// How a reference indexes its array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Index {
    /// Element index `scale*i + offset` with `scale ∈ {0, 1}`:
    /// `scale = 1` is a strided (regular) access, `scale = 0` a
    /// loop-invariant scalar access.
    Affine {
        /// 0 (scalar) or 1 (unit stride).
        scale: i64,
        /// Constant element offset.
        offset: i64,
    },
    /// Element index `value(idx_ref) + offset`: an unpredictable access
    /// through the value of another (affine, integer) reference.
    Indirect {
        /// The reference producing the index value (must be `I64` and
        /// affine).
        idx_ref: RefId,
        /// Constant element offset.
        offset: i64,
    },
}

/// A memory reference within a loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRef {
    /// The accessed array.
    pub array: ArrayId,
    /// The index expression.
    pub index: Index,
}

/// Expressions evaluated in the loop body. Typed: integer and FP
/// expressions are distinct; [`Expr::CvtIF`] bridges them.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer constant.
    ConstI(i64),
    /// FP constant.
    ConstF(f64),
    /// The loop variable (integer).
    Ivar,
    /// The value of a memory reference (type = its array's element type).
    Ref(RefId),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Integer-to-double conversion.
    CvtIF(Box<Expr>),
}

impl Expr {
    /// Convenience constructor: `a + b`.
    #[allow(clippy::should_implement_trait)] // builder sugar, not arithmetic on Expr values
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }

    /// Convenience constructor: `a - b`.
    #[allow(clippy::should_implement_trait)] // builder sugar, not arithmetic on Expr values
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Sub(Box::new(a), Box::new(b))
    }

    /// Convenience constructor: `a * b`.
    #[allow(clippy::should_implement_trait)] // builder sugar, not arithmetic on Expr values
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    /// Convenience constructor: `(f64) a`.
    pub fn cvt(a: Expr) -> Expr {
        Expr::CvtIF(Box::new(a))
    }

    fn for_each_ref(&self, f: &mut impl FnMut(RefId)) {
        match self {
            Expr::Ref(r) => f(*r),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.for_each_ref(f);
                b.for_each_ref(f);
            }
            Expr::CvtIF(a) => a.for_each_ref(f),
            _ => {}
        }
    }
}

/// One statement: store `value` into the `target` reference.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    /// The written reference.
    pub target: RefId,
    /// The value expression.
    pub value: Expr,
}

/// A counted loop (`for i in 0..n`) with its references and statements.
#[derive(Clone, Debug, Default)]
pub struct LoopNest {
    /// Trip count.
    pub n: u64,
    /// All memory references of the loop body.
    pub refs: Vec<MemRef>,
    /// The statements, executed in order each iteration.
    pub stmts: Vec<Stmt>,
    /// References the compiler must treat as potentially incoherent even
    /// if affine (models the Table 2 microbenchmark's assumption that a
    /// reference "is potentially incoherent").
    pub forced_incoherent: HashSet<RefId>,
    /// Arrays the compiler must not map to the LM in this loop (workload
    /// knob for arrays that are only touched through unpredictable
    /// references in the modeled original program).
    pub unmapped_arrays: HashSet<ArrayId>,
}

impl LoopNest {
    /// References written by some statement.
    pub fn written_refs(&self) -> HashSet<RefId> {
        self.stmts.iter().map(|s| s.target).collect()
    }

    /// References read (in any expression, including as indirect
    /// indexes).
    pub fn read_refs(&self) -> HashSet<RefId> {
        let mut out = HashSet::new();
        for s in &self.stmts {
            s.value.for_each_ref(&mut |r| {
                out.insert(r);
            });
        }
        for r in &self.refs {
            if let Index::Indirect { idx_ref, .. } = r.index {
                out.insert(idx_ref);
            }
        }
        out
    }
}

/// A whole kernel: arrays, loops, initial data and the alias oracle.
#[derive(Clone, Debug, Default)]
pub struct Kernel {
    /// Kernel name.
    pub name: String,
    /// Array declarations.
    pub arrays: Vec<ArrayDecl>,
    /// The loops, executed in order.
    pub loops: Vec<LoopNest>,
    /// What the compiler's alias analysis can prove (per array pair).
    pub alias: AliasOracle,
    /// Initial contents per array, as raw 64-bit element bits. Shorter
    /// views are zero-extended to the array length. Each is a read-only
    /// view of a shared buffer: cloning a kernel bumps reference counts,
    /// sharding it narrows views, and a machine maps the views into its
    /// tiles' memories by borrowing their pages, so each table exists
    /// once however it is cloned, sliced and placed.
    pub init: Vec<Words>,
}

/// Validation errors for kernels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IrError {
    /// A reference names a missing array.
    BadArray(RefId),
    /// A statement or index uses a missing reference.
    BadRef(usize),
    /// Indirect index through a non-affine or non-integer reference.
    BadIndirect(RefId),
    /// Affine scale other than 0 or 1.
    BadScale(RefId),
    /// A `scale=1` reference can step outside its array.
    OutOfBounds(RefId),
    /// Expression/type mismatch in a statement.
    TypeMismatch(usize),
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::BadArray(r) => write!(f, "ref {r} names a missing array"),
            IrError::BadRef(s) => write!(f, "statement/index {s} uses a missing ref"),
            IrError::BadIndirect(r) => {
                write!(f, "ref {r}: indirect index must be an affine i64 ref")
            }
            IrError::BadScale(r) => write!(f, "ref {r}: affine scale must be 0 or 1"),
            IrError::OutOfBounds(r) => write!(f, "ref {r} can step outside its array"),
            IrError::TypeMismatch(s) => write!(f, "statement {s}: type mismatch"),
        }
    }
}

impl std::error::Error for IrError {}

impl Kernel {
    /// Element type of a reference within a loop.
    pub fn ref_elem(&self, l: &LoopNest, r: RefId) -> Elem {
        self.arrays[l.refs[r].array].elem
    }

    /// Structural + type validation.
    pub fn validate(&self) -> Result<(), IrError> {
        for l in &self.loops {
            for (rid, r) in l.refs.iter().enumerate() {
                if r.array >= self.arrays.len() {
                    return Err(IrError::BadArray(rid));
                }
                match r.index {
                    Index::Affine { scale, offset } => {
                        if scale != 0 && scale != 1 {
                            return Err(IrError::BadScale(rid));
                        }
                        let len = self.arrays[r.array].len as i64;
                        if scale == 0 {
                            if offset < 0 || offset >= len {
                                return Err(IrError::OutOfBounds(rid));
                            }
                        } else if offset < 0 || l.n as i64 - 1 + offset >= len {
                            return Err(IrError::OutOfBounds(rid));
                        }
                    }
                    Index::Indirect { idx_ref, .. } => {
                        if idx_ref >= l.refs.len() {
                            return Err(IrError::BadRef(rid));
                        }
                        let idx = &l.refs[idx_ref];
                        let affine = matches!(idx.index, Index::Affine { .. });
                        if !affine || self.arrays[idx.array].elem != Elem::I64 {
                            return Err(IrError::BadIndirect(rid));
                        }
                    }
                }
            }
            for (sid, s) in l.stmts.iter().enumerate() {
                if s.target >= l.refs.len() {
                    return Err(IrError::BadRef(sid));
                }
                let want = self.ref_elem(l, s.target);
                let got = self.expr_type(l, &s.value, sid)?;
                if want != got {
                    return Err(IrError::TypeMismatch(sid));
                }
            }
        }
        Ok(())
    }

    fn expr_type(&self, l: &LoopNest, e: &Expr, sid: usize) -> Result<Elem, IrError> {
        Ok(match e {
            Expr::ConstI(_) | Expr::Ivar => Elem::I64,
            Expr::ConstF(_) => Elem::F64,
            Expr::Ref(r) => {
                if *r >= l.refs.len() {
                    return Err(IrError::BadRef(sid));
                }
                self.ref_elem(l, *r)
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                let ta = self.expr_type(l, a, sid)?;
                let tb = self.expr_type(l, b, sid)?;
                if ta != tb {
                    return Err(IrError::TypeMismatch(sid));
                }
                ta
            }
            Expr::CvtIF(a) => {
                if self.expr_type(l, a, sid)? != Elem::I64 {
                    return Err(IrError::TypeMismatch(sid));
                }
                Elem::F64
            }
        })
    }
}

/// Why a kernel cannot be sharded across cores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// The kernel has no loops to split.
    NoLoops,
    /// The loops have different trip counts, so one iteration split does
    /// not apply to all of them.
    UnevenLoops,
    /// More shards requested than loop iterations available.
    TooManyShards {
        /// Iterations available.
        iterations: u64,
        /// Shards requested.
        shards: usize,
    },
    /// An array is indexed both by the loop variable (so its elements
    /// belong to iteration slices) and in an iteration-independent way
    /// (scalar access or as an indirection target), so no slicing can
    /// keep both views consistent. Carries the offending array's name
    /// and one rendered example of each conflicting index expression so
    /// the message points at the exact references to fix.
    MixedIndexing {
        /// The offending array.
        array: ArrayId,
        /// Its name.
        name: String,
        /// An iteration-indexed reference to it, e.g. `a[i + 2]`.
        iter_ref: String,
        /// An iteration-independent reference to it, e.g. `a[idx[i]]`
        /// or `a[3]`.
        fixed_ref: String,
    },
    /// A communication array ([`ArrayDecl::comm`]) is not laid out at
    /// the same address range by every participating kernel, so the
    /// cores would not actually be communicating through one set of
    /// lines. Replicating it per core — the fallback read-only shared
    /// tables get — would silently turn the communication pattern into
    /// private traffic, so the run is refused instead.
    CommLayoutDiverged {
        /// The offending array's name.
        name: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NoLoops => write!(f, "kernel has no loops to shard"),
            ShardError::UnevenLoops => {
                write!(
                    f,
                    "loops have different trip counts; cannot shard uniformly"
                )
            }
            ShardError::TooManyShards { iterations, shards } => {
                write!(
                    f,
                    "cannot split {iterations} iterations into {shards} shards"
                )
            }
            ShardError::MixedIndexing {
                name,
                iter_ref,
                fixed_ref,
                ..
            } => {
                write!(
                    f,
                    "array \"{name}\" cannot be sharded: it is indexed by the \
                     loop variable as {iter_ref} but also \
                     iteration-independently as {fixed_ref}; slicing it breaks \
                     the second view and replicating it whole breaks the first"
                )
            }
            ShardError::CommLayoutDiverged { name } => {
                write!(
                    f,
                    "communication array \"{name}\" is laid out at diverging \
                     addresses across the per-core kernels; the cores would \
                     not share one set of lines, and replicating a written \
                     comm array would silently break the communication \
                     pattern — declare identical array lists (same order and \
                     lengths) in every participating kernel"
                )
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl Kernel {
    /// Renders a reference as source-like text (`a[i + 2]`, `a[3]`,
    /// `a[idx[i]]`) for error messages. `l` is the loop holding the
    /// reference; only indirect indexes consult it (to resolve the
    /// index-producing reference).
    fn render_ref(&self, r: &MemRef, l: &LoopNest) -> String {
        let name = &self.arrays[r.array].name;
        match r.index {
            Index::Affine { scale: 0, offset } => format!("{name}[{offset}]"),
            Index::Affine { offset: 0, .. } => format!("{name}[i]"),
            Index::Affine { offset, .. } if offset < 0 => format!("{name}[i - {}]", -offset),
            Index::Affine { offset, .. } => format!("{name}[i + {offset}]"),
            Index::Indirect { idx_ref, offset } => {
                let inner = self.render_ref(&l.refs[idx_ref], l);
                match offset {
                    0 => format!("{name}[{inner}]"),
                    o if o < 0 => format!("{name}[{inner} - {}]", -o),
                    o => format!("{name}[{inner} + {o}]"),
                }
            }
        }
    }

    /// Splits the kernel into `n` disjoint iteration slices — the
    /// paper's multicore evaluation model, where each core runs the same
    /// loop nest over its private share of the data (§3: the protocol
    /// hardware is per-core and LMs hold private data only).
    ///
    /// Arrays indexed by the loop variable (`a[i + d]`, any `d`) are
    /// *sliced*: shard `s` receives the elements its iterations touch,
    /// plus a `max(d)`-element halo so offset reads stay in bounds —
    /// the shards' written working sets are disjoint. Arrays accessed
    /// only iteration-independently — scalars and indirection targets —
    /// are replicated whole into each shard (gathered tables must stay
    /// fully indexable). No initial data is copied: a shard's
    /// [`Kernel::init`] entry is the parent's view, narrowed to the slice
    /// for a sliced array, so every shard views the parent's buffers.
    /// Each core still sees a private copy, because the machine maps
    /// those buffers copy-on-write. An array accessed
    /// *both* ways admits no consistent slicing and makes the kernel
    /// unshardable ([`ShardError::MixedIndexing`]); silently replicating
    /// it would desynchronize its indices from the sliced arrays'.
    ///
    /// Every produced shard is a self-contained, validated [`Kernel`]:
    /// running shard `s` on its own machine computes exactly the
    /// original kernel's iterations `[start_s, start_s + n_s)` (for
    /// loop-carried halo reads, against the original initial data, as
    /// in any ghost-cell decomposition).
    pub fn shard(&self, n: usize) -> Result<Vec<Kernel>, ShardError> {
        assert!(n >= 1, "shard count must be positive");
        self.shard_weighted(&vec![1u64; n])
    }

    /// [`Kernel::shard`] with per-shard weights: shard `s` receives a
    /// share of the iterations proportional to `weights[s]`, so
    /// iteration counts can be matched to tile strength on a
    /// heterogeneous machine (a 2:1 weight gives one core twice the
    /// iterations of another). The split uses the largest-remainder
    /// method with ties broken toward lower shard indices, so uniform
    /// weights (`[1, 1, .., 1]`) reproduce [`Kernel::shard`] exactly —
    /// shard by shard, byte for byte (pinned by a proptest).
    ///
    /// Every shard must end up with at least one iteration; a weight
    /// small enough (or zero) to starve its shard is rejected as
    /// [`ShardError::TooManyShards`]. Note that *uneven* shards slice
    /// streamed arrays to different lengths, which can place later
    /// arrays at diverging addresses across the shards' layouts; a
    /// machine then cannot register the diverged read-only tables as
    /// coherent shared ranges, and each core caches its own lines of
    /// them (see `MultiMachine::replication_fallbacks`). Their storage
    /// is still the parent's one buffer.
    pub fn shard_weighted(&self, weights: &[u64]) -> Result<Vec<Kernel>, ShardError> {
        assert!(!weights.is_empty(), "need at least one shard weight");
        let n = weights.len();
        let Some(first) = self.loops.first() else {
            return Err(ShardError::NoLoops);
        };
        let iterations = first.n;
        // Uneven loops are unshardable no matter the weights: report
        // that before any starvation diagnosis (same precedence the
        // unweighted `shard` always had).
        if self.loops.iter().any(|l| l.n != iterations) {
            return Err(ShardError::UnevenLoops);
        }
        // 128-bit intermediates: `iterations * weight` must not wrap
        // for any u64 weights (the sum is widened for the same reason).
        let total: u128 = weights.iter().map(|&w| w as u128).sum();
        if total == 0 {
            return Err(ShardError::TooManyShards {
                iterations,
                shards: n,
            });
        }
        // Largest-remainder apportionment: floor shares first, then one
        // extra iteration each to the shards with the largest remainder
        // (ties toward lower indices — exactly `shard`'s "first `extra`
        // shards get one more" rule under uniform weights).
        let share = |w: u64| iterations as u128 * w as u128;
        let mut lens: Vec<u64> = weights.iter().map(|&w| (share(w) / total) as u64).collect();
        let assigned: u64 = lens.iter().sum();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(share(weights[i]) % total), i));
        for &i in order.iter().take((iterations - assigned) as usize) {
            lens[i] += 1;
        }
        if lens.contains(&0) {
            return Err(ShardError::TooManyShards {
                iterations,
                shards: n,
            });
        }
        self.shard_slices(&lens)
    }

    /// Two-level sharding for a clustered machine: splits the kernel
    /// into `clusters` superslices, then each superslice into `per`
    /// per-core shards, returning one `Vec<Kernel>` per cluster. Every
    /// superslice is itself a valid kernel, so halos nest correctly:
    /// cluster `c`'s cores jointly compute exactly the iterations of
    /// superslice `c`, and concatenating all clusters reproduces the
    /// flat `shard(clusters * per)` coverage of the original iteration
    /// space (slice boundaries differ — the two-level split rounds at
    /// cluster granularity first).
    pub fn shard_clustered(
        &self,
        clusters: usize,
        per: usize,
    ) -> Result<Vec<Vec<Kernel>>, ShardError> {
        assert!(clusters >= 1, "cluster count must be positive");
        assert!(per >= 1, "cores per cluster must be positive");
        self.shard(clusters)?
            .iter()
            .map(|superslice| superslice.shard(per))
            .collect()
    }

    /// Splits the kernel into the given iteration slices (`lens[s]`
    /// iterations for shard `s`, in order). The shared back end of
    /// [`Kernel::shard`] and [`Kernel::shard_weighted`].
    fn shard_slices(&self, lens: &[u64]) -> Result<Vec<Kernel>, ShardError> {
        let n = lens.len();
        // The caller (`shard_weighted`) has already rejected empty and
        // uneven loop nests and computed a covering split.
        debug_assert_eq!(
            lens.iter().sum::<u64>(),
            self.loops.first().map_or(0, |l| l.n),
            "caller must validate the split"
        );

        // Classify every array: iteration-indexed (sliced, tracking the
        // widest offset as its halo) and/or iteration-independent
        // (replicated whole). Both at once is unshardable; one example
        // reference per view is remembered so the rejection can name
        // the exact expressions in conflict.
        let mut iter_halo: Vec<Option<u64>> = vec![None; self.arrays.len()];
        let mut iter_site: Vec<Option<MemRef>> = vec![None; self.arrays.len()];
        let mut fixed_site: Vec<Option<(usize, MemRef)>> = vec![None; self.arrays.len()];
        for (li, l) in self.loops.iter().enumerate() {
            for r in &l.refs {
                match r.index {
                    Index::Affine { scale: 1, offset } => {
                        // `validate()` guarantees offset >= 0 here.
                        let halo = iter_halo[r.array].get_or_insert(0);
                        *halo = (*halo).max(offset as u64);
                        iter_site[r.array].get_or_insert(*r);
                    }
                    Index::Affine { .. } | Index::Indirect { .. } => {
                        fixed_site[r.array].get_or_insert((li, *r));
                    }
                }
            }
            // Indirection *index* streams are the referencing side; the
            // target array was already marked fixed above.
        }
        for (array, halo) in iter_halo.iter().enumerate() {
            if halo.is_some() {
                if let Some((li, fixed)) = &fixed_site[array] {
                    let iter = iter_site[array].expect("halo implies an iteration-indexed ref");
                    return Err(ShardError::MixedIndexing {
                        array,
                        name: self.arrays[array].name.clone(),
                        iter_ref: self.render_ref(&iter, &self.loops[*li]),
                        fixed_ref: self.render_ref(fixed, &self.loops[*li]),
                    });
                }
            }
        }

        // Arrays any statement writes: never marked shared. A written
        // replicated-whole array (scalar accumulator, scattered
        // histogram) is per-core state a parallelizing compiler would
        // privatize; sharing its one line across shards would ping-pong
        // under an invalidation protocol on every iteration.
        let mut written = vec![false; self.arrays.len()];
        for l in &self.loops {
            for r in l.written_refs() {
                written[l.refs[r].array] = true;
            }
        }

        let mut start = 0u64;
        let mut shards = Vec::with_capacity(n);
        for (s, &len) in lens.iter().enumerate() {
            let end = start + len;
            let mut k = self.clone();
            k.name = format!("{}#{}/{}", self.name, s, n);
            for l in &mut k.loops {
                l.n = len;
            }
            for (id, decl) in k.arrays.iter_mut().enumerate() {
                let Some(halo) = iter_halo[id] else {
                    // Replicated whole: every shard gets the same values
                    // at (layout permitting) the same addresses. When it
                    // is also read-only and there is more than one
                    // shard, mark it so the machine can serve it from
                    // shared lines under `CoherenceMode::Mesi` instead
                    // of per-core replicas.
                    decl.shared = n > 1 && !written[id];
                    continue;
                };
                // Narrow the declaration and its initial data to this
                // shard's iteration window plus the halo its widest
                // offset reference reaches into. Data past the parent's
                // view stays implicit zero-extension.
                decl.len = len + halo;
                let src = &self.init[id];
                let hi = ((end + halo) as usize).min(src.len());
                k.init[id] = src.slice((start as usize).min(hi)..hi);
            }
            debug_assert!(k.validate().is_ok(), "shard must stay well-formed");
            shards.push(k);
            start = end;
        }
        Ok(shards)
    }
}

/// Fluent builder for kernels.
///
/// ```
/// use hsim_compiler::{KernelBuilder, Expr, Index, Elem};
///
/// let mut kb = KernelBuilder::new("axpy");
/// let x = kb.array_f64("x", 1024);
/// let y = kb.array_f64("y", 1024);
/// kb.begin_loop(1024);
/// let rx = kb.ref_affine(x, 1, 0);
/// let ry = kb.ref_affine(y, 1, 0);
/// kb.stmt(ry, Expr::add(Expr::Ref(ry), Expr::mul(Expr::ConstF(2.0), Expr::Ref(rx))));
/// kb.end_loop();
/// let k = kb.build().unwrap();
/// assert_eq!(k.loops.len(), 1);
/// ```
#[derive(Default)]
pub struct KernelBuilder {
    kernel: Kernel,
    cur: Option<LoopNest>,
}

impl KernelBuilder {
    /// Starts a kernel.
    pub fn new(name: &str) -> Self {
        KernelBuilder {
            kernel: Kernel {
                name: name.to_string(),
                ..Kernel::default()
            },
            cur: None,
        }
    }

    /// Declares an `f64` array initialized to zero.
    pub fn array_f64(&mut self, name: &str, len: u64) -> ArrayId {
        self.push_array(name, Elem::F64, len, Words::default())
    }

    /// Declares an `i64` array initialized to zero.
    pub fn array_i64(&mut self, name: &str, len: u64) -> ArrayId {
        self.push_array(name, Elem::I64, len, Words::default())
    }

    /// Declares an `f64` array with initial values.
    pub fn array_f64_init(&mut self, name: &str, data: &[f64]) -> ArrayId {
        self.array_f64_from(name, data.iter().copied())
    }

    /// Declares an `i64` array with initial values.
    pub fn array_i64_init(&mut self, name: &str, data: &[i64]) -> ArrayId {
        self.array_i64_from(name, data.iter().copied())
    }

    /// Declares an `f64` array whose initial values `data` yields,
    /// collected straight into the kernel's buffer (one allocation when
    /// `data` knows its length, as a mapped range does).
    pub fn array_f64_from(&mut self, name: &str, data: impl IntoIterator<Item = f64>) -> ArrayId {
        let init = data.into_iter().map(f64::to_bits).collect();
        self.array_words(name, Elem::F64, init)
    }

    /// Declares an `i64` array whose initial values `data` yields (see
    /// [`KernelBuilder::array_f64_from`]).
    pub fn array_i64_from(&mut self, name: &str, data: impl IntoIterator<Item = i64>) -> ArrayId {
        let init = data.into_iter().map(|v| v as u64).collect();
        self.array_words(name, Elem::I64, init)
    }

    /// Declares an array of `init.len()` elements whose initial words
    /// are `init`. The kernel holds the view itself, so kernels that
    /// declare clones of one [`Words`] share its buffer.
    pub fn array_words(&mut self, name: &str, elem: Elem, init: Words) -> ArrayId {
        self.push_array(name, elem, init.len() as u64, init)
    }

    fn push_array(&mut self, name: &str, elem: Elem, len: u64, init: Words) -> ArrayId {
        self.kernel.arrays.push(ArrayDecl {
            name: name.to_string(),
            elem,
            len,
            shared: false,
            comm: false,
        });
        self.kernel.init.push(init);
        self.kernel.arrays.len() - 1
    }

    /// Opens a loop of `n` iterations. Panics if one is already open.
    pub fn begin_loop(&mut self, n: u64) {
        assert!(self.cur.is_none(), "loop already open");
        self.cur = Some(LoopNest {
            n,
            ..LoopNest::default()
        });
    }

    fn cur(&mut self) -> &mut LoopNest {
        self.cur.as_mut().expect("no open loop")
    }

    /// Adds an affine reference `array[scale*i + offset]`.
    pub fn ref_affine(&mut self, array: ArrayId, scale: i64, offset: i64) -> RefId {
        let l = self.cur();
        l.refs.push(MemRef {
            array,
            index: Index::Affine { scale, offset },
        });
        l.refs.len() - 1
    }

    /// Adds an indirect reference `array[value(idx_ref) + offset]`.
    pub fn ref_indirect(&mut self, array: ArrayId, idx_ref: RefId, offset: i64) -> RefId {
        let l = self.cur();
        l.refs.push(MemRef {
            array,
            index: Index::Indirect { idx_ref, offset },
        });
        l.refs.len() - 1
    }

    /// Forces a reference to be treated as potentially incoherent
    /// (Table 2 microbenchmark modes).
    pub fn force_incoherent(&mut self, r: RefId) {
        self.cur().forced_incoherent.insert(r);
    }

    /// Forbids mapping an array to the LM in the open loop.
    pub fn no_map(&mut self, a: ArrayId) {
        self.cur().unmapped_arrays.insert(a);
    }

    /// Marks an array as a cross-core **communication** array (see
    /// [`ArrayDecl::comm`]): flags, queue slots, locks, barrier words
    /// or shared tables that several cores' kernels deliberately access
    /// at the *same* addresses. Unlike the sharder-derived
    /// [`ArrayDecl::shared`] flag, a comm array may be written; a
    /// machine refuses to run kernels whose comm-array layouts diverge
    /// ([`ShardError::CommLayoutDiverged`]) instead of silently
    /// replicating them. Array-level, so it may be called outside a
    /// loop.
    pub fn mark_comm(&mut self, a: ArrayId) {
        self.kernel.arrays[a].comm = true;
    }

    /// Adds a statement `target = value`.
    pub fn stmt(&mut self, target: RefId, value: Expr) {
        self.cur().stmts.push(Stmt { target, value });
    }

    /// Closes the open loop.
    pub fn end_loop(&mut self) {
        let l = self.cur.take().expect("no open loop");
        self.kernel.loops.push(l);
    }

    /// Access to the alias oracle being built.
    pub fn alias_mut(&mut self) -> &mut AliasOracle {
        &mut self.kernel.alias
    }

    /// Validates and returns the kernel.
    pub fn build(self) -> Result<Kernel, IrError> {
        assert!(self.cur.is_none(), "unclosed loop");
        self.kernel.validate()?;
        Ok(self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure2_kernel() -> Kernel {
        // The paper's running example:
        //   for i { a[i] = b[i]; c[idx[i]] = 0; ptr[pidx[i]] += 1 }
        // with ptr modeled as an array the compiler cannot disambiguate
        // from a.
        let mut kb = KernelBuilder::new("fig2");
        let a = kb.array_i64("a", 1024);
        let b = kb.array_i64("b", 1024);
        let c = kb.array_i64("c", 512);
        let idx = kb.array_i64("idx", 1024);
        kb.begin_loop(1024);
        let ra = kb.ref_affine(a, 1, 0);
        let rb = kb.ref_affine(b, 1, 0);
        let ridx = kb.ref_affine(idx, 1, 0);
        let rc = kb.ref_indirect(c, ridx, 0);
        let rptr = kb.ref_indirect(a, ridx, 0);
        kb.stmt(ra, Expr::Ref(rb));
        kb.stmt(rc, Expr::ConstI(0));
        kb.stmt(rptr, Expr::add(Expr::Ref(rptr), Expr::ConstI(1)));
        kb.end_loop();
        kb.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_kernel() {
        let k = figure2_kernel();
        assert_eq!(k.arrays.len(), 4);
        assert_eq!(k.loops[0].refs.len(), 5);
        assert_eq!(k.loops[0].stmts.len(), 3);
    }

    #[test]
    fn written_and_read_refs() {
        let k = figure2_kernel();
        let l = &k.loops[0];
        let w = l.written_refs();
        assert!(w.contains(&0) && w.contains(&3) && w.contains(&4));
        let r = l.read_refs();
        assert!(r.contains(&1), "b is read");
        assert!(r.contains(&2), "idx is read (as an index)");
        assert!(r.contains(&4), "ptr target read for +=");
    }

    #[test]
    fn out_of_bounds_affine_rejected() {
        let mut kb = KernelBuilder::new("bad");
        let a = kb.array_i64("a", 10);
        kb.begin_loop(10);
        let ra = kb.ref_affine(a, 1, 1); // i+1 reaches 10: out of range
        kb.stmt(ra, Expr::ConstI(0));
        kb.end_loop();
        assert_eq!(kb.build().unwrap_err(), IrError::OutOfBounds(0));
    }

    #[test]
    fn bounds_with_padding_accepted() {
        let mut kb = KernelBuilder::new("ok");
        let a = kb.array_i64("a", 11);
        kb.begin_loop(10);
        let ra = kb.ref_affine(a, 1, 1);
        kb.stmt(ra, Expr::ConstI(0));
        kb.end_loop();
        assert!(kb.build().is_ok());
    }

    #[test]
    fn scalar_scale_zero_bounds() {
        let mut kb = KernelBuilder::new("s");
        let a = kb.array_i64("a", 4);
        kb.begin_loop(100);
        let r = kb.ref_affine(a, 0, 3);
        kb.stmt(r, Expr::ConstI(1));
        kb.end_loop();
        assert!(kb.build().is_ok());

        let mut kb = KernelBuilder::new("s2");
        let a = kb.array_i64("a", 4);
        kb.begin_loop(100);
        let r = kb.ref_affine(a, 0, 4);
        kb.stmt(r, Expr::ConstI(1));
        kb.end_loop();
        assert_eq!(kb.build().unwrap_err(), IrError::OutOfBounds(0));
    }

    #[test]
    fn indirect_through_f64_rejected() {
        let mut kb = KernelBuilder::new("bad");
        let a = kb.array_f64("a", 16);
        let c = kb.array_i64("c", 16);
        kb.begin_loop(16);
        let ra = kb.ref_affine(a, 1, 0);
        let rc = kb.ref_indirect(c, ra, 0);
        kb.stmt(rc, Expr::ConstI(0));
        kb.end_loop();
        assert_eq!(kb.build().unwrap_err(), IrError::BadIndirect(1));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut kb = KernelBuilder::new("bad");
        let a = kb.array_f64("a", 16);
        kb.begin_loop(16);
        let ra = kb.ref_affine(a, 1, 0);
        kb.stmt(ra, Expr::ConstI(1)); // int into f64 array
        kb.end_loop();
        assert_eq!(kb.build().unwrap_err(), IrError::TypeMismatch(0));
    }

    #[test]
    fn cvt_bridges_types() {
        let mut kb = KernelBuilder::new("ok");
        let a = kb.array_f64("a", 16);
        kb.begin_loop(16);
        let ra = kb.ref_affine(a, 1, 0);
        kb.stmt(ra, Expr::cvt(Expr::Ivar));
        kb.end_loop();
        assert!(kb.build().is_ok());
    }

    #[test]
    fn bad_scale_rejected() {
        let mut kb = KernelBuilder::new("bad");
        let a = kb.array_i64("a", 1000);
        kb.begin_loop(10);
        let ra = kb.ref_affine(a, 2, 0);
        kb.stmt(ra, Expr::ConstI(0));
        kb.end_loop();
        assert_eq!(kb.build().unwrap_err(), IrError::BadScale(0));
    }

    #[test]
    fn shard_slices_streamed_arrays_and_keeps_tables_whole() {
        let mut kb = KernelBuilder::new("K");
        let a = kb.array_i64_init("a", &(0..10).collect::<Vec<i64>>());
        let idx = kb.array_i64_init("idx", &[0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
        let table = kb.array_i64_init("table", &[7, 8, 9]);
        kb.begin_loop(10);
        let ra = kb.ref_affine(a, 1, 0);
        let ridx = kb.ref_affine(idx, 1, 0);
        let rt = kb.ref_indirect(table, ridx, 0);
        kb.stmt(ra, Expr::add(Expr::Ref(ra), Expr::Ref(rt)));
        kb.end_loop();
        let k = kb.build().unwrap();

        let shards = k.shard(3).unwrap();
        assert_eq!(shards.len(), 3);
        // 10 = 4 + 3 + 3.
        assert_eq!(
            shards.iter().map(|s| s.loops[0].n).collect::<Vec<_>>(),
            [4, 3, 3]
        );
        // Streamed arrays are sliced disjointly...
        assert_eq!(*shards[0].init[a], [0, 1, 2, 3]);
        assert_eq!(*shards[1].init[a], [4, 5, 6]);
        assert_eq!(*shards[2].init[a], [7, 8, 9]);
        assert_eq!(shards[1].arrays[a].len, 3);
        // ...including the index stream...
        assert_eq!(*shards[2].init[idx], [1, 2, 0]);
        // ...while the gathered table stays whole in every shard, and —
        // being read-only — is marked cross-core shared; the sliced and
        // written arrays are not.
        for s in &shards {
            assert_eq!(s.arrays[table].len, 3);
            assert_eq!(*s.init[table], [7, 8, 9]);
            assert!(s.arrays[table].shared, "read-only table is shared");
            assert!(!s.arrays[a].shared, "sliced arrays stay private");
            assert!(!s.arrays[idx].shared, "sliced arrays stay private");
            assert!(s.validate().is_ok());
        }
        assert_eq!(shards[0].name, "K#0/3");
        // Unsharded kernels mark nothing.
        assert!(k.arrays.iter().all(|d| !d.shared));
        assert!(k.shard(1).unwrap()[0].arrays.iter().all(|d| !d.shared));
    }

    #[test]
    fn shard_keeps_written_replicated_arrays_private() {
        // A scalar accumulator is replicated whole into every shard but
        // *written* — it must not be marked shared (per-core state a
        // parallelizing compiler privatizes; sharing its line would
        // ping-pong under an invalidation protocol).
        let mut kb = KernelBuilder::new("K");
        let a = kb.array_i64_init("a", &(0..8).collect::<Vec<i64>>());
        let acc = kb.array_i64_init("acc", &[0]);
        let table = kb.array_i64_init("t", &[3, 4]);
        let idx = kb.array_i64_init("idx", &[0, 1, 0, 1, 0, 1, 0, 1]);
        kb.begin_loop(8);
        let ra = kb.ref_affine(a, 1, 0);
        let racc = kb.ref_affine(acc, 0, 0);
        let ridx = kb.ref_affine(idx, 1, 0);
        let rt = kb.ref_indirect(table, ridx, 0);
        kb.stmt(racc, Expr::add(Expr::Ref(racc), Expr::Ref(ra)));
        kb.stmt(ra, Expr::add(Expr::Ref(ra), Expr::Ref(rt)));
        kb.end_loop();
        let shards = kb.build().unwrap().shard(2).unwrap();
        for s in &shards {
            assert!(!s.arrays[acc].shared, "written accumulator is private");
            assert!(s.arrays[table].shared, "read-only gather target shared");
        }
    }

    #[test]
    fn shard_slices_offset_arrays_with_a_halo() {
        let mut kb = KernelBuilder::new("K");
        let a = kb.array_i64_init("a", &(0..12).collect::<Vec<i64>>());
        let s = kb.array_i64_init("s", &[5]);
        kb.begin_loop(10);
        let r0 = kb.ref_affine(a, 1, 0);
        let r1 = kb.ref_affine(a, 1, 2); // widest offset -> 2-element halo
        let rs = kb.ref_affine(s, 0, 0);
        kb.stmt(r0, Expr::add(Expr::Ref(r1), Expr::Ref(rs)));
        kb.end_loop();
        let k = kb.build().unwrap();
        let shards = k.shard(2).unwrap();
        for sh in &shards {
            assert_eq!(sh.arrays[a].len, 7, "5-iteration slice + 2-element halo");
            assert_eq!(sh.arrays[s].len, 1, "scalar array replicated whole");
            assert_eq!(sh.loops[0].n, 5);
            assert!(sh.validate().is_ok());
        }
        // The halo keeps offset reads index-consistent: shard 1 starts at
        // original element 5.
        assert_eq!(*shards[1].init[a], [5, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn shard_decomposition_is_faithful_with_offsets() {
        // a[i] = b[i+2] + s: running the shards standalone and
        // concatenating their `a` slices must reproduce the full run —
        // the index-shift class of bug (sliced `a` against whole `b`)
        // would break this.
        let mut kb = KernelBuilder::new("K");
        let a = kb.array_i64("a", 10);
        let b = kb.array_i64_init("b", &(100..112).collect::<Vec<i64>>());
        let s = kb.array_i64_init("s", &[7]);
        kb.begin_loop(10);
        let ra = kb.ref_affine(a, 1, 0);
        let rb = kb.ref_affine(b, 1, 2);
        let rs = kb.ref_affine(s, 0, 0);
        kb.stmt(ra, Expr::add(Expr::Ref(rb), Expr::Ref(rs)));
        kb.end_loop();
        let k = kb.build().unwrap();

        let full = crate::interp::interpret(&k).unwrap();
        let mut stitched = Vec::new();
        for sh in k.shard(3).unwrap() {
            let out = crate::interp::interpret(&sh).unwrap();
            let slice_len = sh.loops[0].n as usize;
            stitched.extend_from_slice(&out[a][..slice_len]);
        }
        assert_eq!(stitched, full[a], "sharded run diverged from the full run");
    }

    #[test]
    fn shard_rejects_mixed_iteration_and_fixed_indexing() {
        // arrays[0] is streamed (a[i]) *and* scattered into through an
        // index array: slicing it breaks the indirect view, replicating
        // it whole breaks the streamed view — must refuse.
        let mut kb = KernelBuilder::new("K");
        let a = kb.array_i64_init("a", &(0..8).collect::<Vec<i64>>());
        let idx = kb.array_i64_init("idx", &[0, 1, 2, 3, 4, 5, 6, 7]);
        kb.begin_loop(8);
        let ra = kb.ref_affine(a, 1, 0);
        let ridx = kb.ref_affine(idx, 1, 0);
        let rg = kb.ref_indirect(a, ridx, 0);
        kb.stmt(ra, Expr::add(Expr::Ref(ra), Expr::Ref(rg)));
        kb.end_loop();
        let k = kb.build().unwrap();
        let err = k.shard(2).unwrap_err();
        match &err {
            ShardError::MixedIndexing { array, .. } => assert_eq!(*array, a),
            other => panic!("wrong error: {other:?}"),
        }
        assert!(
            k.shard(1).is_err(),
            "even one shard needs consistent indexing"
        );
    }

    #[test]
    fn mixed_indexing_message_names_array_and_both_expressions() {
        // A stream `vals[i + 1]` gathered into through `vals[idx[i]]`:
        // the rejection must spell out the array name and both index
        // expressions, not just "unshardable".
        let mut kb = KernelBuilder::new("K");
        let vals = kb.array_i64_init("vals", &(0..9).collect::<Vec<i64>>());
        let idx = kb.array_i64_init("idx", &[0, 1, 2, 3, 4, 5, 6, 7]);
        kb.begin_loop(8);
        let rv = kb.ref_affine(vals, 1, 1);
        let ridx = kb.ref_affine(idx, 1, 0);
        let rg = kb.ref_indirect(vals, ridx, 0);
        kb.stmt(rv, Expr::add(Expr::Ref(rv), Expr::Ref(rg)));
        kb.end_loop();
        let k = kb.build().unwrap();
        let err = k.shard(2).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("\"vals\""), "must name the array: {msg}");
        assert!(
            msg.contains("vals[i + 1]"),
            "must show the iteration-indexed expression: {msg}"
        );
        assert!(
            msg.contains("vals[idx[i]]"),
            "must show the iteration-independent expression: {msg}"
        );
        // Scalar (fixed-offset) conflicts render as plain subscripts.
        let mut kb = KernelBuilder::new("K2");
        let s = kb.array_i64_init("s", &[1, 2, 3, 4]);
        kb.begin_loop(4);
        let r0 = kb.ref_affine(s, 1, 0);
        let rs = kb.ref_affine(s, 0, 3);
        kb.stmt(r0, Expr::add(Expr::Ref(r0), Expr::Ref(rs)));
        kb.end_loop();
        let msg = kb.build().unwrap().shard(2).unwrap_err().to_string();
        assert!(msg.contains("s[i]") && msg.contains("s[3]"), "{msg}");
    }

    /// `a[i] += t[idx[i]]` over `n` iterations: shardable, with a
    /// gathered (replicated-whole, read-only) table.
    fn gather_kernel(n: u64) -> Kernel {
        let mut kb = KernelBuilder::new("G");
        let a = kb.array_i64_init("a", &(0..n as i64).collect::<Vec<i64>>());
        let idx = kb.array_i64_init("idx", &(0..n as i64).map(|i| i % 3).collect::<Vec<i64>>());
        let table = kb.array_i64_init("t", &[7, 8, 9]);
        kb.begin_loop(n);
        let ra = kb.ref_affine(a, 1, 0);
        let ridx = kb.ref_affine(idx, 1, 0);
        let rt = kb.ref_indirect(table, ridx, 0);
        kb.stmt(ra, Expr::add(Expr::Ref(ra), Expr::Ref(rt)));
        kb.end_loop();
        kb.build().unwrap()
    }

    /// Asserts that each shard's initial data views its parent's
    /// buffer, over the very words the parent holds there.
    fn assert_views_parent(parent: &Kernel, shards: &[Kernel]) {
        for s in shards {
            for (id, (view, whole)) in s.init.iter().zip(&parent.init).enumerate() {
                let ((buf, r), (parent_buf, pr)) = (view.buffer(), whole.buffer());
                assert!(
                    std::sync::Arc::ptr_eq(buf, parent_buf),
                    "{}: array {id} must view its parent's buffer",
                    s.name
                );
                assert!(
                    pr.start <= r.start && r.end <= pr.end,
                    "{}: array {id}",
                    s.name
                );
                assert_eq!(**view, whole[r.start - pr.start..r.end - pr.start]);
            }
        }
    }

    #[test]
    fn every_shard_views_its_parents_init_buffers() {
        let k = gather_kernel(32);
        assert_views_parent(&k, &k.shard(4).unwrap());
        assert_views_parent(&k, &k.shard_weighted(&[3, 1, 2]).unwrap());
        let superslices = k.shard(2).unwrap();
        assert_views_parent(&k, &superslices);
        let clustered = k.shard_clustered(2, 8).unwrap();
        assert_eq!(clustered.iter().flatten().count(), 16);
        for (superslice, cluster) in superslices.iter().zip(&clustered) {
            assert_views_parent(superslice, cluster);
            assert_views_parent(&k, cluster);
        }
        assert_eq!(k.init, gather_kernel(32).init, "sharding changed no word");
    }

    #[test]
    fn weighted_shards_split_proportionally() {
        let k = gather_kernel(12);
        let shards = k.shard_weighted(&[2, 1, 1]).unwrap();
        assert_eq!(
            shards.iter().map(|s| s.loops[0].n).collect::<Vec<_>>(),
            [6, 3, 3]
        );
        // Slices stay disjoint and in order.
        assert_eq!(*shards[0].init[0], *(0..6).collect::<Vec<u64>>());
        assert_eq!(*shards[1].init[0], *(6..9).collect::<Vec<u64>>());
        assert_eq!(*shards[2].init[0], *(9..12).collect::<Vec<u64>>());
        // The gathered table stays whole and shared in every shard.
        for s in &shards {
            assert!(s.arrays[2].shared);
            assert!(s.validate().is_ok());
        }
    }

    #[test]
    fn weighted_remainders_go_to_the_largest_fractions() {
        // 10 iterations at weights [3, 1]: ideal shares 7.5 / 2.5; the
        // single remainder iteration goes to the larger fraction — both
        // are 0.5, so the tie breaks toward the lower index.
        let k = gather_kernel(10);
        let lens: Vec<u64> = k
            .shard_weighted(&[3, 1])
            .unwrap()
            .iter()
            .map(|s| s.loops[0].n)
            .collect();
        assert_eq!(lens, [8, 2]);
        // Unequal fractions: 10 @ [5, 2]: ideal 50/7 ≈ 7.14, 20/7 ≈
        // 2.86 — the remainder iteration belongs to shard 1.
        let lens: Vec<u64> = k
            .shard_weighted(&[5, 2])
            .unwrap()
            .iter()
            .map(|s| s.loops[0].n)
            .collect();
        assert_eq!(lens, [7, 3]);
    }

    #[test]
    fn uniform_weights_reproduce_plain_shard() {
        for n in [1usize, 2, 3, 5] {
            let k = gather_kernel(11);
            let plain = k.shard(n).unwrap();
            let weighted = k.shard_weighted(&vec![1; n]).unwrap();
            assert_eq!(plain.len(), weighted.len());
            for (p, w) in plain.iter().zip(&weighted) {
                assert_eq!(p.name, w.name);
                assert_eq!(p.loops[0].n, w.loops[0].n);
                assert_eq!(p.init, w.init);
            }
        }
    }

    #[test]
    fn starved_weighted_shards_are_rejected() {
        let k = gather_kernel(8);
        // A zero weight starves its shard outright.
        assert_eq!(
            k.shard_weighted(&[1, 0]).unwrap_err(),
            ShardError::TooManyShards {
                iterations: 8,
                shards: 2
            }
        );
        // So does a weight too small for its proportional share to
        // round up to one iteration.
        assert_eq!(
            k.shard_weighted(&[100, 1, 1]).unwrap_err(),
            ShardError::TooManyShards {
                iterations: 8,
                shards: 3
            }
        );
        // All-zero weights have no proportions at all.
        assert!(k.shard_weighted(&[0, 0]).is_err());
    }

    #[test]
    fn uneven_loops_outrank_starvation_in_weighted_errors() {
        // Two loops with different trip counts: unshardable however
        // the weights fall — even when the weights would also starve a
        // shard, the structural error wins (the precedence `shard`
        // always had).
        let mut kb = KernelBuilder::new("uneven");
        let a = kb.array_i64("a", 8);
        kb.begin_loop(4);
        let ra = kb.ref_affine(a, 1, 0);
        kb.stmt(ra, Expr::Ivar);
        kb.end_loop();
        kb.begin_loop(8);
        let ra = kb.ref_affine(a, 1, 0);
        kb.stmt(ra, Expr::Ivar);
        kb.end_loop();
        let k = kb.build().unwrap();
        assert_eq!(k.shard(5).unwrap_err(), ShardError::UnevenLoops);
        assert_eq!(
            k.shard_weighted(&[100, 1, 1]).unwrap_err(),
            ShardError::UnevenLoops
        );
    }

    #[test]
    fn extreme_weights_do_not_overflow() {
        // u64::MAX weights must not wrap the apportionment arithmetic:
        // the starved shard is reported as an error, never a panic or a
        // silently wrong split.
        let k = gather_kernel(12);
        assert_eq!(
            k.shard_weighted(&[u64::MAX, 1]).unwrap_err(),
            ShardError::TooManyShards {
                iterations: 12,
                shards: 2
            }
        );
        // Equal extreme weights still split evenly.
        let lens: Vec<u64> = k
            .shard_weighted(&[u64::MAX, u64::MAX])
            .unwrap()
            .iter()
            .map(|s| s.loops[0].n)
            .collect();
        assert_eq!(lens, [6, 6]);
    }

    #[test]
    fn shard_error_cases() {
        let empty = Kernel::default();
        assert_eq!(empty.shard(2).unwrap_err(), ShardError::NoLoops);

        let mut kb = KernelBuilder::new("tiny");
        let a = kb.array_i64("a", 2);
        kb.begin_loop(2);
        let ra = kb.ref_affine(a, 1, 0);
        kb.stmt(ra, Expr::Ivar);
        kb.end_loop();
        let k = kb.build().unwrap();
        assert_eq!(
            k.shard(5).unwrap_err(),
            ShardError::TooManyShards {
                iterations: 2,
                shards: 5
            }
        );
        assert_eq!(k.shard(1).unwrap().len(), 1);
    }
}
