"""Client-side computations of the key modulation protocol.

Everything in this module runs on the *client*: it holds the master key,
so it is the only party able to evaluate the chain.  The functions are
pure -- they take views received from the server plus key material and
return the values to send back -- which is what makes them directly
testable against the paper's Theorems 1 and 2.

* :func:`verify_distinct_modulators` -- the client's refusal rule ("the
  client expects all modulators in MT(k) to have different values").
* :func:`verify_mt_structure` -- shape check that the claimed path and cut
  really form a root-to-leaf path with its (n-1)-cut.
* :func:`compute_deltas` -- the ``delta(c)`` values of Eq. 5.
* :func:`compute_balance_values` -- Eqs. 8 and 9 evaluated against the
  post-delta tree under the new master key (the two formulations agree;
  see DESIGN.md section 3, ablation 4 discussion).
* :func:`compute_insertion` -- the Section IV-E leaf split.
* :func:`verify_batch_view` / :func:`chain_values_for_view` /
  :func:`compute_deltas_multi` / :func:`compute_batch_moves` -- the
  batched-deletion pipeline over the union view ``MT(S)``: one key
  rotation and one delta set compensate every leaf outside the batch,
  and each tree level's chain steps go out as one ``step_many`` batch.
* :func:`derive_all_keys` -- whole-file key derivation with shared
  prefixes (Table III's computation-overhead numerator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.errors import DuplicateModulatorError, StructureError
from repro.core.modulated_chain import ChainEngine, releaf_modulator, xor_bytes
from repro.core.tree import (BalanceView, BatchView, ModulationTree, MTView,
                             PathView)
from repro.crypto.rng import RandomSource


@dataclass(frozen=True)
class DeletionCommit:
    """Client -> server payload completing a deletion."""

    cut_slots: tuple[int, ...]
    deltas: tuple[bytes, ...]
    x_s_prime: Optional[bytes]
    dest_link: Optional[bytes]
    dest_leaf: Optional[bytes]


@dataclass(frozen=True)
class BalanceMove:
    """One rebalancing move of a batched deletion (Eqs. 8-9).

    Field semantics are exactly those of
    :meth:`repro.core.tree.ModulationTree.delete_leaf`; all three fields
    are ``None`` for the degenerate one-leaf move.
    """

    x_s_prime: Optional[bytes]
    dest_link: Optional[bytes]
    dest_leaf: Optional[bytes]


@dataclass(frozen=True)
class InsertionCommit:
    """Client -> server payload completing an insertion.

    ``chain_output`` (the new item's full chain value) stays on the client;
    only the modulators travel.
    """

    t_new_link: Optional[bytes]
    t_new_leaf: Optional[bytes]
    e_link: Optional[bytes]
    e_leaf: bytes
    chain_output: bytes


def verify_distinct_modulators(modulators: Sequence[bytes]) -> None:
    """Reject any repeated modulator value (Theorem 2, case ii defence)."""
    if len(set(modulators)) != len(modulators):
        raise DuplicateModulatorError(
            "received subtree contains duplicate modulators; refusing to "
            "operate on it")


def verify_path_structure(view: PathView) -> None:
    """Check that the slots really form a root-to-leaf heap path."""
    slots = view.path_slots
    if not slots or slots[0] != 1:
        raise StructureError("path must start at the root slot")
    for parent, child in zip(slots, slots[1:]):
        if child not in (2 * parent, 2 * parent + 1):
            raise StructureError(f"slot {child} is not a child of {parent}")
    if len(view.path_links) != len(slots) - 1:
        raise StructureError("one link modulator per non-root path slot required")


def verify_mt_structure(view: MTView) -> None:
    """Check path shape and that each cut entry is the matching sibling."""
    verify_path_structure(PathView(view.path_slots, view.path_links,
                                   view.leaf_mod))
    if len(view.cut) != len(view.path_slots) - 1:
        raise StructureError("one cut node per non-root path slot required")
    for path_slot, entry in zip(view.path_slots[1:], view.cut):
        if entry.slot != (path_slot ^ 1):
            raise StructureError(
                f"cut slot {entry.slot} is not the sibling of {path_slot}")
        if entry.is_leaf and entry.leaf_mod is None:
            raise StructureError("leaf cut entries must carry a leaf modulator")


def chain_output_for_path(engine: ChainEngine, master_key: bytes,
                          view: PathView) -> bytes:
    """Evaluate ``F(K, M_k)`` for a received path."""
    return engine.evaluate(master_key, view.modulator_list())


def compute_deltas(engine: ChainEngine, old_key: bytes, new_key: bytes,
                   mt: MTView) -> tuple[tuple[int, ...], tuple[bytes, ...]]:
    """Compute ``delta(c) = F(K, M_c) xor F(K', M_c)`` for the whole cut.

    Shares one prefix sweep along ``P(k)`` for each key, so the entire cut
    costs ``O(log n)`` hashes exactly as Section IV-C argues.  The old-key
    and new-key sweeps run as two lanes through :meth:`ChainEngine.step_many`
    and all per-depth cut steps are issued as one batch.
    """
    old_prefixes = [engine.pad_key(old_key)]
    new_prefixes = [engine.pad_key(new_key)]
    for link in mt.path_links:
        stepped = engine.step_many([old_prefixes[-1], new_prefixes[-1]],
                                   [link, link])
        old_prefixes.append(stepped[0])
        new_prefixes.append(stepped[1])

    # Each cut node shares the first ``depth`` path links, then diverges
    # through its own incoming link modulator: 2|cut| independent steps.
    step_values = []
    step_mods = []
    for depth, entry in enumerate(mt.cut):
        step_values.extend((old_prefixes[depth], new_prefixes[depth]))
        step_mods.extend((entry.link_mod, entry.link_mod))
    stepped = engine.step_many(step_values, step_mods)

    cut_slots = tuple(entry.slot for entry in mt.cut)
    deltas = tuple(xor_bytes(stepped[2 * i], stepped[2 * i + 1])
                   for i in range(len(mt.cut)))
    return cut_slots, deltas


def _post_delta(value: bytes, slot: int, kind: str,
                delta_by_cut_slot: dict[int, bytes]) -> bytes:
    """Value of a modulator after the server applies the deltas.

    ``delta(c)`` lands on the *child links* of an internal cut node and on
    the *leaf modulator* of a leaf cut node, so a link into ``slot`` moves
    iff ``parent(slot)`` is a cut node, and a leaf modulator at ``slot``
    moves iff ``slot`` itself is a cut node.
    """
    if kind == "link":
        delta = delta_by_cut_slot.get(slot // 2)
    else:
        delta = delta_by_cut_slot.get(slot)
    return xor_bytes(value, delta) if delta is not None else value


def compute_balance_values(
        engine: ChainEngine, new_key: bytes, mt: MTView,
        balance: Optional[BalanceView],
        cut_slots: Sequence[int], deltas: Sequence[bytes],
        rng: RandomSource,
) -> tuple[Optional[bytes], Optional[bytes], Optional[bytes]]:
    """Equations 8 and 9: leaf-modulator reassignments for rebalancing.

    Evaluated against the tree *as it will stand after the deltas are
    applied*, under the new master key alone: the client locally applies
    its own deltas to the received balance view, then uses the identity of
    :func:`repro.core.modulated_chain.releaf_modulator`.  Returns
    ``(x_s_prime, dest_link, dest_leaf)`` matching
    :meth:`repro.core.tree.ModulationTree.delete_leaf`.
    """
    if balance is None:
        return None, None, None

    slot_k = mt.path_slots[-1]
    t_slot = balance.t_path.leaf_slot
    s_slot = balance.s_slot
    delta_by_cut_slot = dict(zip(cut_slots, deltas))

    t_links = [
        _post_delta(link, slot, "link", delta_by_cut_slot)
        for slot, link in zip(balance.t_path.path_slots[1:],
                              balance.t_path.path_links)
    ]
    t_leaf = _post_delta(balance.t_path.leaf_mod, t_slot, "leaf",
                         delta_by_cut_slot)
    s_link = _post_delta(balance.s_link_mod, s_slot, "link", delta_by_cut_slot)
    s_leaf = _post_delta(balance.s_leaf_mod, s_slot, "leaf", delta_by_cut_slot)

    prefixes = engine.prefix_values(new_key, t_links)
    parent_value = prefixes[-2]  # F(K', M_p): chain value at t's parent p.

    # Eq. 8: s takes over p's slot; its prefix shortens by one link.
    old_prefix_s = engine.step(parent_value, s_link)
    x_s_prime = releaf_modulator(parent_value, old_prefix_s, s_leaf)

    if slot_k == t_slot:
        return x_s_prime, None, None

    old_prefix_t = prefixes[-1]  # F(K', M_t links): value before t's leaf mod.

    if slot_k == s_slot:
        # t takes over the collapsed parent slot, inheriting its incoming
        # link; its new prefix is the chain value at p.
        dest_leaf = releaf_modulator(parent_value, old_prefix_t, t_leaf)
        return x_s_prime, None, dest_leaf

    # Eq. 9: t lands on k's old slot under a fresh link modulator chosen by
    # the client.  P(k)'s link modulators are never delta-adjusted (the cut
    # nodes' children are all off-path), so the received values are current.
    dest_link = rng.bytes(engine.digest_size)
    parent_k_value = engine.evaluate(new_key, mt.path_links[:-1])
    new_prefix_t = engine.step(parent_k_value, dest_link)
    dest_leaf = releaf_modulator(new_prefix_t, old_prefix_t, t_leaf)
    return x_s_prime, dest_link, dest_leaf


def verify_batch_view(view: BatchView) -> None:
    """Client refusal rules for a batched deletion view (Theorem 2).

    Shape cannot be forged -- the slot lists are derived locally from
    ``(n_leaves, target_slots)`` -- so the checks are: the targets are
    distinct leaves of the claimed tree, the modulator counts match the
    derived slot lists exactly, and all modulator values are distinct.
    """
    n = view.n_leaves
    targets = view.target_slots
    if not targets:
        raise StructureError("batch view carries no targets")
    if len(set(targets)) != len(targets):
        raise StructureError("batch targets must be distinct")
    if len(targets) > n:
        raise StructureError("more targets than leaves")
    for slot in targets:
        if not n <= slot <= 2 * n - 1:
            raise StructureError(f"target slot {slot} is not a leaf of a "
                                 f"{n}-leaf tree")
    link_slots = ModulationTree.batch_link_slots(n, targets)
    if len(view.links) != len(link_slots):
        raise StructureError("one link modulator per derived link slot "
                             "required")
    leaf_slots = ModulationTree.batch_leaf_mod_slots(n, targets)
    if len(view.leaf_mods) != len(leaf_slots):
        raise StructureError("one leaf modulator per derived leaf slot "
                             "required")
    verify_distinct_modulators(view.all_modulators())


def chain_values_for_view(engine: ChainEngine, master_keys: Sequence[bytes],
                          view: BatchView) -> list[dict[int, bytes]]:
    """Chain value at every view node, per key, in one multi-lane sweep.

    Slots are visited in heap order (ascending slot number == level
    order), each level issuing a single :meth:`ChainEngine.step_many`
    call with one lane per master key.  Returns one
    ``slot -> F(K, M_slot)`` dict per key; hash count is
    ``len(link_slots)`` per key, identical to scalar evaluation.
    """
    link_slots = ModulationTree.batch_link_slots(view.n_leaves,
                                                 view.target_slots)
    link_of = dict(zip(link_slots, view.links))
    lanes: list[dict[int, bytes]] = [{1: engine.pad_key(key)}
                                     for key in master_keys]
    index = 0
    while index < len(link_slots):
        depth = link_slots[index].bit_length()
        level = []
        while (index < len(link_slots)
               and link_slots[index].bit_length() == depth):
            level.append(link_slots[index])
            index += 1
        values = []
        mods = []
        for lane in lanes:
            for slot in level:
                values.append(lane[slot // 2])
                mods.append(link_of[slot])
        stepped = engine.step_many(values, mods)
        position = 0
        for lane in lanes:
            for slot in level:
                lane[slot] = stepped[position]
                position += 1
    return lanes


def batch_chain_outputs(engine: ChainEngine, values: dict[int, bytes],
                        view: BatchView) -> list[bytes]:
    """``F(K, M_k)`` for every target, batching the leaf-modulator steps."""
    leaf_slots = ModulationTree.batch_leaf_mod_slots(view.n_leaves,
                                                     view.target_slots)
    leaf_of = dict(zip(leaf_slots, view.leaf_mods))
    return engine.step_many([values[slot] for slot in view.target_slots],
                            [leaf_of[slot] for slot in view.target_slots])


def compute_deltas_multi(view: BatchView, values_old: dict[int, bytes],
                         values_new: dict[int, bytes],
                         ) -> tuple[tuple[int, ...], tuple[bytes, ...]]:
    """Union-cut deltas (Eq. 5 over ``MT(S)``): one delta per cut node.

    ``values_old`` / ``values_new`` come from
    :func:`chain_values_for_view`; cut nodes are view nodes, so each delta
    is a plain XOR of two already-computed chain values.  Cut slots are in
    canonical (ascending) order -- the server derives the same order
    itself, so they never travel on the wire.
    """
    cut_slots = tuple(ModulationTree.union_cut_slots(view.target_slots))
    deltas = tuple(xor_bytes(values_old[slot], values_new[slot])
                   for slot in cut_slots)
    return cut_slots, deltas


def compute_batch_moves(engine: ChainEngine, view: BatchView,
                        cut_slots: Sequence[int], deltas: Sequence[bytes],
                        values_old: dict[int, bytes],
                        values_new: dict[int, bytes],
                        rng: RandomSource) -> tuple[BalanceMove, ...]:
    """Eqs. 8-9 for every rebalancing move of a batched deletion.

    The client simulates the server's ``k`` sequential
    :meth:`~repro.core.tree.ModulationTree.delete_leaf` calls (same item
    order) against the post-delta tree under the new key alone.  Two
    invariants make this cheap:

    * post-delta chain values need no recomputation per move -- a move
      only ever writes link modulators at slots that are leaves from then
      on, and leaves are never ancestors of later-queried internal nodes,
      so every needed chain value is a lookup into the one sweep already
      done (new-key values on the union path and at cut nodes, old-key
      values strictly below the cut, where the deltas preserve them);
    * modulators *are* rewritten by moves, so the band's link/leaf values
      go through a write-through mirror.
    """
    n = view.n_leaves
    targets = view.target_slots
    delta_of = dict(zip(cut_slots, deltas))
    path_set = set(ModulationTree.union_path_slots(targets))

    def star(slot: int) -> bytes:
        """Post-delta chain value under the new key at a view node."""
        if slot in path_set or slot // 2 in path_set:
            return values_new[slot]
        return values_old[slot]

    links: dict[int, bytes] = {}
    for slot, value in zip(ModulationTree.batch_link_slots(n, targets),
                           view.links):
        delta = delta_of.get(slot // 2)
        links[slot] = xor_bytes(value, delta) if delta is not None else value
    leaves: dict[int, bytes] = {}
    for slot, value in zip(ModulationTree.batch_leaf_mod_slots(n, targets),
                           view.leaf_mods):
        delta = delta_of.get(slot)
        leaves[slot] = xor_bytes(value, delta) if delta is not None else value

    owner = {slot: index for index, slot in enumerate(targets)}
    current = list(targets)
    moves: list[BalanceMove] = []
    m = n
    for index in range(len(targets)):
        slot_k = current[index]
        del owner[slot_k]
        if m == 1:
            moves.append(BalanceMove(None, None, None))
            m = 0
            continue
        t_slot, s_slot, p_slot = 2 * m - 1, 2 * m - 2, m - 1
        parent_value = star(p_slot)

        # Eq. 8: s takes over p's slot; its prefix shortens by one link.
        old_prefix_s = engine.step(parent_value, links[s_slot])
        x_s_prime = releaf_modulator(parent_value, old_prefix_s,
                                     leaves[s_slot])
        if s_slot in owner:
            moved = owner.pop(s_slot)
            owner[p_slot] = moved
            current[moved] = p_slot
        leaves[p_slot] = x_s_prime

        if slot_k == t_slot:
            moves.append(BalanceMove(x_s_prime, None, None))
        else:
            dest = p_slot if slot_k == s_slot else slot_k
            old_prefix_t = engine.step(parent_value, links[t_slot])
            if dest == p_slot:
                # t takes over the collapsed parent slot, inheriting its
                # incoming link (or landing on the root for m == 2).
                dest_link = None
                new_prefix_t = parent_value
            else:
                # Eq. 9: t lands on k's slot under a fresh client-chosen
                # link modulator.
                dest_link = rng.bytes(engine.digest_size)
                new_prefix_t = engine.step(star(dest // 2), dest_link)
                links[dest] = dest_link
            dest_leaf = releaf_modulator(new_prefix_t, old_prefix_t,
                                         leaves[t_slot])
            if t_slot in owner:
                moved = owner.pop(t_slot)
                owner[dest] = moved
                current[moved] = dest
            leaves[dest] = dest_leaf
            moves.append(BalanceMove(x_s_prime, dest_link, dest_leaf))
        m -= 1
    return tuple(moves)


def compute_insertion(engine: ChainEngine, master_key: bytes,
                      insert_path: Optional[PathView],
                      rng: RandomSource) -> InsertionCommit:
    """Section IV-E: split the shallowest leaf and key the new leaf ``e``."""
    width = engine.digest_size
    if insert_path is None:
        # Empty tree: the new leaf is the root; M_e = <x_e>.
        e_leaf = rng.bytes(width)
        chain_output = engine.evaluate(master_key, [e_leaf])
        return InsertionCommit(t_new_link=None, t_new_leaf=None, e_link=None,
                               e_leaf=e_leaf, chain_output=chain_output)

    verify_path_structure(insert_path)
    verify_distinct_modulators(insert_path.modulator_list())
    prefix_value = engine.evaluate(master_key, insert_path.path_links)

    t_new_link = rng.bytes(width)
    new_prefix_t = engine.step(prefix_value, t_new_link)
    t_new_leaf = releaf_modulator(new_prefix_t, prefix_value,
                                  insert_path.leaf_mod)

    e_link = rng.bytes(width)
    e_leaf = rng.bytes(width)
    chain_output = engine.step(engine.step(prefix_value, e_link), e_leaf)
    return InsertionCommit(t_new_link=t_new_link, t_new_leaf=t_new_leaf,
                           e_link=e_link, e_leaf=e_leaf,
                           chain_output=chain_output)


def derive_all_keys(engine: ChainEngine, master_key: bytes, n_leaves: int,
                    links: Sequence[Optional[bytes]],
                    leaves: Sequence[Optional[bytes]]) -> dict[int, bytes]:
    """Derive every leaf's chain output from a full tree snapshot.

    ``links[slot]`` / ``leaves[slot]`` are slot-indexed (entries below the
    first valid slot are ignored).  Prefix values are shared down the tree,
    so the whole file costs ``3n - 2`` hashes rather than ``n log n`` --
    this is the numerator of Table III's computation-overhead ratio.
    """
    if n_leaves == 0:
        return {}
    total = 2 * n_leaves - 1
    values: list[Optional[bytes]] = [None] * (total + 1)
    values[1] = engine.pad_key(master_key)
    outputs: dict[int, bytes] = {}

    # Level-order traversal: every slot on one level depends only on the
    # previous level, so each level is one batched step_many call -- a
    # large constant-factor win for whole-file fetches without changing
    # the 3n-2 hash count.
    level_start = 2
    while level_start <= total:
        level_end = min(2 * level_start - 1, total)
        slots = range(level_start, level_end + 1)
        level_links = []
        parent_values = []
        for slot in slots:
            link = links[slot]
            if link is None:
                raise StructureError(f"missing link modulator for slot {slot}")
            level_links.append(link)
            parent_values.append(values[slot // 2])
        for slot, value in zip(slots, engine.step_many(parent_values,
                                                       level_links)):
            values[slot] = value
        level_start = 2 * level_start

    leaf_slots = range(n_leaves, total + 1)
    leaf_mods = []
    for slot in leaf_slots:
        leaf = leaves[slot]
        if leaf is None:
            raise StructureError(f"missing leaf modulator for slot {slot}")
        leaf_mods.append(leaf)
    leaf_values = [values[slot] for slot in leaf_slots]
    for slot, output in zip(leaf_slots, engine.step_many(leaf_values,
                                                         leaf_mods)):
        outputs[slot] = output
    return outputs
