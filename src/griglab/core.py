"""Exact arithmetic for automorphisms of regular rooted trees.

An automorphism is stored by wreath recursion: a permutation of the top-level
subtrees plus one section per subtree.  A group preset declares finitely many
generator states whose sections point back into the generator set, so every
element reachable from the generators unfolds into a finite portrait whose
leaves are atoms.

The central trick is hash consing: every element is interned by its
(permutation, section references) shape, and a freshly built shape that
coincides with a generator atom collapses onto that atom.  Products of atoms
are resolved once at startup by an exact finite-state identity check on words,
so after startup two elements are equal in the group if and only if they are
the same Python object.  That makes equality, identity tests and dictionary
deduplication O(1) everywhere else in the package.
"""

from __future__ import annotations

from operator import itemgetter

SCHEMA_VERSION = "asg-1"
IDENTITY_LABEL = "1"

# states explored by the finite-state identity check before giving up
DEFAULT_IDENTITY_BUDGET = 200_000


class PresetError(ValueError):
    """Raised when a preset definition fails validation."""


class MixedPresetError(ValueError):
    """Raised when elements of different presets are combined."""


class UndecidedError(RuntimeError):
    """Identity check exceeded its state budget; the answer is unknown."""


class NonContractingError(RuntimeError):
    """The preset admits no finite canonical form for some product."""


class Element:
    """A tree automorphism: root permutation plus one section per subtree.

    Instances are interned by their preset; identity of objects coincides
    with equality in the group.  `label` is set on generator atoms (and on
    automatically created inverse atoms), `word` is an optional defining
    word kept for provenance only.
    """

    __slots__ = ("perm", "sections", "label", "preset", "word", "_key")

    def __init__(self, perm, sections, label, preset):
        self.perm = perm
        self.sections = sections
        self.label = label
        self.preset = preset
        self.word = None
        self._key = None

    def __repr__(self):
        if self.label is not None:
            return f"<{self.preset.name}:{self.label}>"
        if self.word is not None:
            return f"<{self.preset.name} elem {self.word!r}>"
        return f"<{self.preset.name} elem key={self.key().hex()}>"

    def key(self):
        """Canonical byte string; equal keys hold exactly for equal elements."""
        k = self._key
        if k is None:
            if self.label is not None:
                k = bytes([self.preset._atom_code[self.label]])
            else:
                parts = [b"\xf0", bytes(self.perm)]
                parts.extend(s.key() for s in self.sections)
                k = b"".join(parts)
            self._key = k
        return k


class GroupPreset:
    """A finite self-similar generating table over a d-regular rooted tree.

    Construction validates the table, builds the generator atoms (plus
    inverse atoms for non-involutive generators), certifies the declared
    involutions and the pairwise distinctness of the atoms, and resolves
    every product of two atoms.  Atom products that equal an atom feed
    `pair_rules`, the word rewriting table used by :mod:`griglab.words` and
    :func:`griglab.enumeration.ball`.
    """

    def __init__(self, name, arity, generator_specs):
        if not isinstance(arity, int) or arity < 2:
            raise PresetError(f"arity must be an integer >= 2, got {arity!r}")
        self.name = name
        self.arity = arity
        self._validate_specs(generator_specs)
        self.generator_specs = [dict(spec) for spec in generator_specs]
        self.gen_labels = [spec["label"] for spec in generator_specs]

        self._intern = {}
        self._perms = {}  # permutation -> the one tuple its elements share
        self._composed = {}  # (p, q) -> the shared tuple of compose(p, q)
        self._mul_memo = {}
        self._sandwich_memo = {}
        self._inv_memo = {}
        self._action_memo = {}
        self._caches = {}

        self._build_atoms()
        self._startup_checks()
        # two-letter word -> "" or a one-letter word for the products of two
        # single-character generators certified to be trivial or an atom with
        # a single-character label; populated by _seed_atom_products
        self.pair_rules = {}
        self._seed_atom_products()
        self._mul = self._product_kernel()
        self._sandwich = self._sandwich_kernel()

    # ------------------------------------------------------------------
    # validation and atom construction

    def _validate_specs(self, specs):
        if not isinstance(specs, (list, tuple)) or not specs:
            raise PresetError("preset generators must be a non-empty list")
        labels = set()
        for spec in specs:
            if not isinstance(spec, dict):
                raise PresetError(f"generator entry {spec!r} is not an object")
            label = spec.get("label")
            # words are strings of labels, and "'" marks an inverse atom
            if not isinstance(label, str) or len(label) != 1 or label in (IDENTITY_LABEL, "'"):
                raise PresetError(
                    f"bad generator label {label!r}: labels are single characters"
                    f" other than {IDENTITY_LABEL!r} and \"'\""
                )
            if label in labels:
                raise PresetError(f"generator {label!r}: duplicate label")
            labels.add(label)
        for spec in specs:
            label = spec["label"]
            perm = spec.get("perm")
            if (
                not isinstance(perm, (list, tuple))
                or not all(isinstance(i, int) for i in perm)
                or sorted(perm) != list(range(self.arity))
            ):
                raise PresetError(
                    f"generator {label!r}: perm must be a permutation of 0..{self.arity - 1}"
                )
            sections = spec.get("sections")
            if not isinstance(sections, (list, tuple)) or len(sections) != self.arity:
                raise PresetError(
                    f"generator {label!r}: expected {self.arity} sections"
                )
            for s in sections:
                if not isinstance(s, str) or (s != IDENTITY_LABEL and s not in labels):
                    raise PresetError(
                        f"generator {label!r}: section label {s!r} is not declared"
                    )
            if not isinstance(spec.get("involution"), bool):
                raise PresetError(f"generator {label!r}: involution flag must be a boolean")

    def _build_atoms(self):
        d = self.arity
        trivial = tuple(range(d))
        self.identity = Element(trivial, None, IDENTITY_LABEL, self)
        self.identity.sections = (self.identity,) * d
        self.identity.word = ""

        # two-phase build: atoms may reference each other cyclically
        self.atoms = {IDENTITY_LABEL: self.identity}
        for spec in self.generator_specs:
            self.atoms[spec["label"]] = Element(
                tuple(spec["perm"]), None, spec["label"], self
            )
        for spec in self.generator_specs:
            atom = self.atoms[spec["label"]]
            atom.sections = tuple(self.atoms[s] for s in spec["sections"])
            atom.word = spec["label"]

        # formal inverse atoms for generators with no inverse among the
        # generators; their sections are inverses of generator sections, so
        # the extended set is closed.  A generator whose inverse is a
        # generator, itself included, reuses it instead of growing the atom
        # set.  Only certified pairs enter _inverse_atom, and the identity
        # check free-reduces by nothing else, so no declared involution flag
        # is trusted here; _startup_checks holds the flags to these pairs.
        self._inverse_atom = {self.identity: self.identity}
        inv_labels = {}
        for spec in self.generator_specs:
            atom = self.atoms[spec["label"]]
            if atom in self._inverse_atom:
                continue
            pinv = inverse(atom.perm)
            declared = None
            for other_spec in self.generator_specs:
                other = self.atoms[other_spec["label"]]
                if (
                    other.perm == pinv
                    and other not in self._inverse_atom
                    and self.word_acts_trivially((atom, other))
                ):
                    declared = other
                    break
            if declared is not None:
                self._inverse_atom[atom] = declared
                self._inverse_atom[declared] = atom
                continue
            label = spec["label"] + "'"
            inv_labels[spec["label"]] = label
            inv = Element(pinv, None, label, self)
            self.atoms[label] = inv
            self._inverse_atom[atom] = inv
            self._inverse_atom[inv] = atom
        for base_label, label in inv_labels.items():
            atom, inv = self.atoms[base_label], self.atoms[label]
            pinv = inv.perm
            inv.sections = tuple(
                self._inverse_atom[atom.sections[pinv[v]]] for v in range(self.arity)
            )
            inv.word = label

        self._atom_code = {
            label: i for i, label in enumerate(sorted(self.atoms, key=self._atom_order))
        }
        if len(self._atom_code) > 0xEF:
            raise PresetError("too many generator states for 1-byte atom codes")

        # intern the atom shapes so any computed product that matches a
        # generator collapses onto it
        for atom in self.atoms.values():
            atom.perm = self._perms.setdefault(atom.perm, atom.perm)
            self._intern.setdefault((atom.perm, atom.sections), atom)

    def _atom_order(self, label):
        if label == IDENTITY_LABEL:
            return (0, label)
        base = label.rstrip("'")
        return (1, self.gen_labels.index(base), label)

    # ------------------------------------------------------------------
    # finite-state identity check on atom words
    #
    # A word acts trivially on the whole tree iff every word reachable from
    # it by taking sections has a trivial root permutation.  Section words
    # never get longer than the word itself, so the reachable set is finite
    # and the check is exact.  It needs nothing but the generator table,
    # which makes it the bootstrap oracle for everything else.

    def _word_perm(self, word):
        p = tuple(range(self.arity))
        for atom in word:
            p = compose(p, atom.perm)
        return p

    def _word_section(self, word, v):
        # coordinate of v seen by each letter = image of v under the suffix
        # to its right; walk right to left
        coords = []
        cur = v
        for atom in reversed(word):
            coords.append(cur)
            cur = atom.perm[cur]
        coords.reverse()
        out = []
        for atom, c in zip(word, coords):
            s = atom.sections[c]
            if s is not self.identity:
                out.append(s)
        return self._free_reduce_atoms(out)

    def _free_reduce_atoms(self, word):
        stack = []
        for atom in word:
            if stack and self._inverse_atom.get(stack[-1]) is atom:
                stack.pop()
            else:
                stack.append(atom)
        return tuple(stack)

    def word_acts_trivially(self, word):
        """Exact identity test for a word of atoms; may raise UndecidedError."""
        budget = DEFAULT_IDENTITY_BUDGET
        seed = self._free_reduce_atoms(word)
        seen = set()
        stack = [seed]
        while stack:
            w = stack.pop()
            if not w or w in seen:
                continue
            seen.add(w)
            if len(seen) > budget:
                raise UndecidedError(
                    f"identity check exceeded {budget} states; preset may not be contracting"
                )
            if self._word_perm(w) != tuple(range(self.arity)):
                return False
            for v in range(self.arity):
                stack.append(self._word_section(w, v))
        return True

    # ------------------------------------------------------------------
    # startup certification

    def _startup_checks(self):
        for spec in self.generator_specs:
            atom = self.atoms[spec["label"]]
            if spec["involution"] and self._inverse_atom[atom] is not atom:
                raise PresetError(
                    f"generator {spec['label']!r}: declared involution but square is nontrivial"
                )
        nontrivial = [a for a in self.atoms.values() if a is not self.identity]
        for atom in nontrivial:
            if self.word_acts_trivially((atom,)):
                raise PresetError(f"generator {atom.label!r}: acts trivially")
        for i, u in enumerate(nontrivial):
            for v in nontrivial[i + 1 :]:
                if self.word_acts_trivially((u, self._inverse_atom[v])):
                    raise PresetError(
                        f"generators {u.label!r} and {v.label!r} define equal automorphisms"
                    )

    def _seed_atom_products(self):
        """Resolve every product of two non-identity atoms.

        A product equal to an atom (or trivial) is certified by the
        finite-state check and seeded into the multiplication memo; the rest
        are built structurally.  A structural cycle means some product has
        no finite portrait over the atom set, which this representation
        cannot express.
        """
        nontrivial = [
            self.atoms[label]
            for label in sorted(self.atoms, key=self._atom_order)
            if label != IDENTITY_LABEL
        ]
        candidates = [self.identity] + nontrivial
        for u in nontrivial:
            for v in nontrivial:
                for t in candidates:
                    word = (u, v, self._inverse_atom[t])
                    if self.word_acts_trivially(word):
                        self._mul_memo[(u, v)] = t
                        rule = "" if t is self.identity else t.label
                        if len(u.label) == len(v.label) == 1 and len(rule) <= 1:
                            self.pair_rules[u.label + v.label] = rule
                        break

        in_progress = set()

        def resolve(u, v):
            got = self._mul_memo.get((u, v))
            if got is not None:
                return got
            if (u, v) in in_progress:
                raise NonContractingError(
                    f"product {u.label!r}*{v.label!r} has no finite canonical form"
                )
            in_progress.add((u, v))
            perm = compose(u.perm, v.perm)
            sections = []
            for w in range(self.arity):
                x, y = u.sections[v.perm[w]], v.sections[w]
                if x is self.identity:
                    s = y
                elif y is self.identity:
                    s = x
                else:
                    s = resolve(x, y)
                sections.append(s)
            out = self.make_element(perm, tuple(sections))
            self._mul_memo[(u, v)] = out
            in_progress.discard((u, v))
            return out

        for u in nontrivial:
            for v in nontrivial:
                resolve(u, v)

    # ------------------------------------------------------------------
    # element construction

    def _product_kernel(self):
        """The product x*y of two elements of this preset, memoised.

        The sections of an element belong to its preset, so the recursion
        needs no preset check; `multiply` makes it once per call.
        """
        memo, make, one = self._mul_memo, self.make_element, self.identity
        composed, compose_perms = self._composed, self.compose_perms

        def mul(x, y):
            if x is one:
                return y
            if y is one:
                return x
            out = memo.get((x, y))
            if out is None:
                xs, yp = x.sections, y.perm
                # map, not a comprehension: no frame per product
                sections = tuple(map(mul, map(xs.__getitem__, yp), y.sections))
                perm = composed.get((x.perm, yp)) or compose_perms(x.perm, yp)
                out = memo[(x, y)] = make(perm, sections)
            return out

        return mul

    def _sandwich_kernel(self):
        """The product h*c*k of atoms h, k and an element c, memoised.

        The sections of an atom are atoms, so the recursion stays inside
        this kernel; it hands c an atom, or h or k the identity, to `_mul`.
        Its memo is kept apart from `_mul`'s, which measured faster than one
        shared table.
        """
        memo, mul, make, one = self._sandwich_memo, self._mul, self.make_element, self.identity
        composed, compose_perms = self._composed, self.compose_perms

        def sandwich(h, c, k):
            if c.label is not None or h is one or k is one:
                return mul(mul(h, c), k)
            out = memo.get((h, c, k))
            if out is None:
                kp = k.perm
                ck = composed.get((c.perm, kp)) or compose_perms(c.perm, kp)
                perm = composed.get((h.perm, ck)) or compose_perms(h.perm, ck)
                hs, cs = h.sections.__getitem__, c.sections.__getitem__
                sections = tuple(map(sandwich, map(hs, ck), map(cs, kp), k.sections))
                out = memo[(h, c, k)] = make(perm, sections)
            return out

        return sandwich

    def compose_perms(self, p, q):
        """The shared tuple for compose(p, q), kept in `_composed`; read it first."""
        perm = compose(p, q)
        return self._composed.setdefault((p, q), self._perms.setdefault(perm, perm))

    def make_element(self, perm, sections):
        """Intern the automorphism with the given shape.

        Sections must already be canonical elements of this preset; the
        result is the unique shared object for this automorphism, and a new
        element takes the preset's one tuple for its permutation.
        """
        got = self._intern.get((perm, sections))
        if got is not None:
            return got
        perm = self._perms.setdefault(perm, perm)
        return self._intern.setdefault((perm, sections), Element(perm, sections, None, self))

    def cache(self, name):
        """The preset's memo table called `name`, created empty on first use.

        Every module that memoises data derived from a preset keeps it here,
        so the preset owns all of its caches.  The element memos used by
        multiply, invert and level_action stay plain attributes.
        """
        table = self._caches.get(name)
        if table is None:
            table = self._caches[name] = {}
        return table

    def atom(self, label):
        try:
            return self.atoms[label]
        except KeyError:
            raise PresetError(f"unknown generator {label!r}") from None

    @property
    def generators(self):
        return [self.atoms[label] for label in self.gen_labels]


# ----------------------------------------------------------------------
# element operations


def _check_same_preset(x, y):
    if x.preset is not y.preset:
        raise MixedPresetError(
            f"elements from presets {x.preset.name!r} and {y.preset.name!r}"
        )


def multiply(x, y):
    """Product x*y acting by (x*y)(w) = x(y(w))."""
    _check_same_preset(x, y)
    return x.preset._mul(x, y)


def invert(x):
    preset = x.preset
    if x is preset.identity:
        return x
    inv = preset._inverse_atom.get(x)
    if inv is not None:
        return inv
    memo = preset._inv_memo
    got = memo.get(x)
    if got is not None:
        return got
    pinv = inverse(x.perm)
    sections = tuple(invert(x.sections[pinv[v]]) for v in range(preset.arity))
    out = preset.make_element(pinv, sections)
    memo[x] = out
    memo[out] = x
    return out


def is_identity(x):
    """True iff x acts trivially on the whole tree.

    Canonical interning makes this an object identity test; the recursive
    decision happened when the element was built.  Presets whose products
    admit no finite canonical form fail earlier, at construction, with
    NonContractingError or UndecidedError rather than a wrong answer.
    """
    return x is x.preset.identity


def equals(x, y):
    _check_same_preset(x, y)
    return x is y


def canonical_key(x):
    return x.key()


def conjugate(x, z):
    """z**-1 * x * z."""
    _check_same_preset(x, z)
    mul = x.preset._mul
    return mul(mul(invert(z), x), z)


def conjugates(x, words, inverse=False):
    """x^w for each word w, or x^(w**-1) with `inverse`, in the words' order.

    A generator: values come one at a time, so a scan can stop early.
    Words are strings of atom labels.  x^(u g) = g**-1 * x^u * g is one
    `_sandwich` step from the value of the prefix u, and
    x^((g v)**-1) = g * x^(v**-1) * g**-1 one from the value of the suffix
    v, so with `inverse` each word is walked reversed.  Each word extends
    its longest prefix already met one letter at a time, and every value
    met is kept for the call, so a table over a ball, whose words' prefixes
    are ball words, costs one step per word.  A step reads `_sandwich_memo`
    and calls the kernel only on a miss.
    """
    preset = x.preset
    sandwich, memo, inv = preset._sandwich, preset._sandwich_memo, preset._inverse_atom
    # label -> (h, k) of the step c -> h * c * k
    steps = {label: (g, inv[g]) if inverse else (inv[g], g) for label, g in preset.atoms.items()}
    known = {"": x}
    for w in words:
        w = w[::-1] if inverse else w
        got = known.get(w)
        if got is None:
            i = len(w) - 1
            while (got := known.get(w[:i])) is None:
                i -= 1
            for i in range(i, len(w)):
                h, k = steps[w[i]]
                got = memo.get((h, got, k)) or sandwich(h, got, k)
                known[w[: i + 1]] = got
        yield got


def commutator(x, y):
    """x**-1 * y**-1 * x * y."""
    _check_same_preset(x, y)
    mul = x.preset._mul
    return mul(mul(invert(x), invert(y)), mul(x, y))


def level_action(x, m):
    """Permutation induced on the d**m vertices of level m, in lex order.

    Homomorphic in x: level_action(x*y, m) is the composition of the two
    leaf permutations.
    """
    if m < 0:
        raise ValueError("level must be >= 0")
    if m == 0:
        return (0,)
    preset = x.preset
    memo = preset._action_memo
    got = memo.get((x, m))
    if got is not None:
        return got
    d = preset.arity
    if m == 1:
        out = x.perm
    else:
        half = d ** (m - 1)
        res = [0] * (d * half)
        for v in range(d):
            sub = level_action(x.sections[v], m - 1)
            base_in = v * half
            base_out = x.perm[v] * half
            for i in range(half):
                res[base_in + i] = base_out + sub[i]
        out = tuple(res)
    memo[(x, m)] = out
    return out


def generator_actions(preset, m):
    """Level-m actions of the generators, in declaration order."""
    return [level_action(preset.atoms[label], m) for label in preset.gen_labels]


def evaluate(preset, word):
    """Element of a word over generator labels (single characters).

    A letter `1` is the identity and an unknown letter raises PresetError.
    Each letter is one product, read off `_mul_memo` and computed by the
    kernel only on a miss.  The first word to reach an element becomes its
    `word`.
    """
    memo, mul, atoms = preset._mul_memo, preset._mul, preset.atoms
    e = preset.identity
    for ch in word:
        g = atoms.get(ch) or preset.atom(ch)  # atom raises PresetError
        e = memo.get((e, g)) or mul(e, g)
    if e.word is None:
        e.word = word
    return e


def word_leaf_permutation(preset, word, m):
    """Action of a word on level m computed from the raw generator table.

    A generator sends the leaf v.rest to perm[v].(its section at v)(rest),
    so its level-(k+1) permutation is built from its sections' level-k
    ones, and the word composes its letters' permutations as products act.
    Deliberately avoids Element arithmetic and interning so it can serve as
    an independent deduplication path against canonical keys.
    """
    d = preset.arity
    table = {spec["label"]: (spec["perm"], spec["sections"]) for spec in preset.generator_specs}
    table[IDENTITY_LABEL] = (range(d), [IDENTITY_LABEL] * d)
    acts = dict.fromkeys(table, (0,))  # level 0
    for k in range(m):  # level k -> level k + 1
        half = d**k
        acts = {
            label: tuple(perm[v] * half + i for v in range(d) for i in acts[sections[v]])
            for label, (perm, sections) in table.items()
        }
    out = acts[IDENTITY_LABEL]
    for label in word:
        out = compose(out, acts[label])
    return out


# ----------------------------------------------------------------------
# permutations of range(n) and their breadth-first closures
#
# Everything that enumerates a finite level quotient (the quotient itself,
# its conjugacy classes, quotient balls) is one closure over moves of the
# form "multiply by g" or "conjugate by g".
# Elements carry their permutations as tuples.  A closure state is the
# permutation as bytes, composed by bytes.translate, when it has at most
# BYTES_POINTS points, and a tuple composed by itemgetter above that.
# bytes.translate takes a 256-byte table, so a state used as one is padded
# with the fixed points len(g)..255.
# Bytes sort like the tuples they stand for, so orders of states and the
# numberings read off them do not depend on the state type.

BYTES_POINTS = 256


def compose(p, q):
    """Permutation of the product x*y from those of x and y: p[q[i]].

    The product acts by (x*y)(i) = x(y(i)).
    """
    return tuple([p[i] for i in q])


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def state(p):
    """The closure state of the permutation p (a sequence of points)."""
    return bytes(p) if len(p) <= BYTES_POINTS else tuple(p)


def right_mul(g):
    """The move p -> compose(p, g) on states of len(g) points."""
    if len(g) > BYTES_POINTS:
        return itemgetter(*g)
    by_g, pad = bytes(g), bytes(range(len(g), 256))
    return lambda p: by_g.translate(p + pad)


def conjugation(g):
    """The move q -> compose(inverse(g), compose(q, g)) on states of len(g) points."""
    g_inv = inverse(g)
    if len(g) > BYTES_POINTS:
        by_g = itemgetter(*g)
        return lambda q: itemgetter(*by_g(q))(g_inv)
    by_g, pad = bytes(g), bytes(range(len(g), 256))
    to_g_inv = bytes(g_inv) + pad
    return lambda q: by_g.translate(q + pad).translate(to_g_inv)


def closure(seeds, moves, radius=None):
    """Breadth-first closure of the states `seeds` under the callables `moves`.

    Returns (reached, sizes): the set of states reached within `radius`
    layers (until nothing new appears when radius is None), and sizes[k],
    the size of that set after k layers.  With a radius, sizes has
    radius + 1 entries even when the closure saturates earlier.
    """
    reached = set(seeds)
    frontier = list(reached)
    sizes = [len(reached)]
    while frontier and (radius is None or len(sizes) <= radius):
        new = []
        for s in frontier:
            for move in moves:
                t = move(s)
                if t not in reached:
                    reached.add(t)
                    new.append(t)
        frontier = new
        sizes.append(len(reached))
    if radius is not None:
        sizes += sizes[-1:] * (radius + 1 - len(sizes))
    return reached, sizes


# ----------------------------------------------------------------------
# presets

GRIGORCHUK_SPECS = [
    {"label": "a", "involution": True, "perm": [1, 0], "sections": ["1", "1"]},
    {"label": "b", "involution": True, "perm": [0, 1], "sections": ["a", "c"]},
    {"label": "c", "involution": True, "perm": [0, 1], "sections": ["a", "d"]},
    {"label": "d", "involution": True, "perm": [0, 1], "sections": ["1", "b"]},
]

_BUILTIN_CACHE = {}


def load_preset(spec):
    """Load a preset by name ("grigorchuk") or from an automaton file.

    Files use the versioned JSON schema "asg-1":
    {"schema": "asg-1", "name": ..., "arity": d,
     "generators": [{"label", "involution", "perm", "sections"}, ...]}
    """
    if isinstance(spec, str) and spec == "grigorchuk":
        if "grigorchuk" not in _BUILTIN_CACHE:
            _BUILTIN_CACHE["grigorchuk"] = GroupPreset("grigorchuk", 2, GRIGORCHUK_SPECS)
        return _BUILTIN_CACHE["grigorchuk"]
    # only a preset file needs these; a built-in preset loads without them
    import json
    from pathlib import Path

    path = Path(spec)
    if not path.exists():
        bundled = Path(__file__).parent / "presets" / (str(spec) + ".json")
        if bundled.exists():
            path = bundled
        else:
            raise PresetError(f"unknown preset {spec!r} and no such file")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise PresetError(f"cannot read preset file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise PresetError(f"preset file {path}: the top level is not an object")
    if data.get("schema") != SCHEMA_VERSION:
        raise PresetError(
            f"preset file {path}: schema {data.get('schema')!r}, expected {SCHEMA_VERSION!r}"
        )
    for field in ("name", "arity", "generators"):
        if field not in data:
            raise PresetError(f"preset file {path}: missing field {field!r}")
    return GroupPreset(data["name"], data["arity"], data["generators"])
