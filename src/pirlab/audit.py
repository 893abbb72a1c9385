"""Verification engine: exact privacy audits, correctness checks, rate and
overhead measurement, and numeric spot checks of the entropy identities and
converse inequalities on implemented schemes.

Privacy evidence is exhaustive enumeration with exact rational weights; a
pass means the total variation distance is the rational 0, never "small".
Every exact measurement is a projection of one weighted pass over the
message and randomness spaces (``_tabulate``) and a finishing step on its
tables. ``audit_sections`` runs that pass once, with every report section's
projection, and ``build_audit_report`` renders the sections it returns.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import islice, product
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .capacity import check_rate_admissible, mtpir_capacity, storage_overhead
from .coding import CodecConfig, SourceModel, check_ints
from .descriptor import EmptySpaceError, SchemeDescriptor
from .dist import ExactDist, conditional_entropy, conditional_mutual_information, entropy, total_variation
from .seeds import derive_seed

EXHAUSTION_LIMIT = 1 << 20
_COUNT_EVERY = 1024  # sessions between a pass's counts: its memory does not grow with its length

REAL_TOLERANCE = 1e-9


def _f_symbols(f) -> tuple:
    return f if isinstance(f, tuple) else (f,)


def _thetas(scheme: SchemeDescriptor) -> tuple[int, ...]:
    return tuple(range(1, scheme.params.num_messages + 1))


def _spaces(scheme: SchemeDescriptor):
    """Both spaces, listed; a message space too large for ``EXHAUSTION_LIMIT``
    is refused after at most one message more than fits. An empty space is
    refused too: it would run no session, so every table would be empty."""
    randomness = list(scheme.randomness_space())
    messages = list(islice(scheme.message_space(), EXHAUSTION_LIMIT // max(len(randomness), 1) + 1))
    if not (messages and randomness):
        raise EmptySpaceError(scheme)
    size = len(messages) * len(randomness)
    if size > EXHAUSTION_LIMIT:
        raise ValueError(
            f"state space of at least {size} sessions exceeds the exhaustion limit of {EXHAUSTION_LIMIT}"
        )
    return messages, randomness


def _integer_weights(space: list) -> tuple[list, int]:
    """``(value, p)`` pairs as ``(value, p * den)`` over the lcm ``den``."""
    den = math.lcm(*(p.denominator for _, p in space))
    return [(value, p.numerator * (den // p.denominator)) for value, p in space], den


class _Projection(NamedTuple):
    """What one measurement reads from the pass, and how it finishes.

    ``session(msg, stored, f, records)`` returns one key per table,
    ``records[i]`` being the session played with the pass's ``thetas[i]``;
    ``stored`` is None unless ``stores``. ``finish`` maps the tables, as
    ``ExactDist`` counts over the pass's common denominator, to the
    measurement; ``compose``, if set, maps the same tables, tabulated over a
    product's component, to the product's measurement.
    """

    finish: Callable[[list], object]
    session: Callable
    stores: bool = False
    compose: Callable[[list], object] | None = None


def _tabulate(
    scheme: SchemeDescriptor,
    thetas: Sequence[int],
    projections: Sequence[_Projection],
) -> list:
    """Each projection's finished result, from one exhaustive pass.

    Each message is stored once, and only if some projection reads storage;
    each (message, theta, randomness) triple is run once. Every projection
    reads each (message, randomness) pair, and weights accumulate as
    integers over the product of the two spaces' common denominators.
    Keys are counted every ``_COUNT_EVERY`` sessions, in C by ``Counter`` if each
    weighs 1, else by weight, keeping first-occurrence order, into ``ExactDist``s.
    A product whose projections all compose is tabulated over its component,
    unless nested or with a replaced run, store or space: those are enumerated.
    """
    product = scheme.product
    built = (scheme.message_space, scheme.randomness_space, scheme.store, scheme.run)
    compose = product is not None and product.built == built and product.component.product is None
    compose = compose and all(p.compose for p in projections)
    scheme = product.component if compose else scheme
    messages, randomness = _spaces(scheme)
    messages, msg_den = _integer_weights(messages)
    randomness, f_den = _integer_weights(randomness)
    run = scheme.run
    stores = any(p.stores for p in projections)
    slots, weights = [(p.session, [], defaultdict(Counter)) for p in projections], []

    def count():
        unit = weights.count(1) == len(weights)
        for _, keys, tables in slots:
            k = len(keys) // len(weights)
            for i in range(k):
                if unit:
                    tables[i].update(keys[i::k])
                else:
                    for key, weight in zip(keys[i::k], weights):
                        tables[i][key] += weight
            keys.clear()
        weights.clear()

    for msg, w_msg in messages:
        stored = scheme.store(msg) if stores else None
        for f, w_f in randomness:
            records = [run(msg, theta, f) for theta in thetas]
            for session, keys, _ in slots:
                keys.extend(session(msg, stored, f, records))
            weights.append(w_msg * w_f)
            if len(weights) == _COUNT_EVERY:
                count()
    if weights:
        count()
    total = msg_den * f_den
    # The listed spaces can outweigh the tables: free them before finishing.
    del messages, randomness
    return [
        (p.compose if compose else p.finish)([ExactDist(table, total=total) for table in tables.values()])
        for p, (_, _, tables) in zip(projections, slots)
    ]


def _views(scheme: SchemeDescriptor, thetas: Sequence[int]) -> _Projection:
    """Laws of (queries, stored, answers) at each database, keyed (theta, database)."""
    databases = range(scheme.params.num_databases)
    keys = list(product(thetas, range(1, scheme.params.num_databases + 1)))

    def session(msg, stored, f, records):
        return [r.queries[n] + stored[n] + r.answers[n] for r in records for n in databases]

    return _Projection(lambda tables: dict(zip(keys, tables)), session, stores=True)


def enumerate_view(scheme: SchemeDescriptor, theta: int, database: int) -> ExactDist:
    """Exact joint law of (queries, stored content, answers) at one database
    under desired index theta, by exhaustive enumeration."""
    if not (1 <= database <= scheme.params.num_databases):
        raise ValueError(f"database must be in [1, {scheme.params.num_databases}]")
    return _tabulate(scheme, (theta,), [_views(scheme, (theta,))])[0][theta, database]


def _privacy(scheme: SchemeDescriptor, views: dict, product: bool = False) -> dict:
    """Verdicts from views keyed (theta, database), or a product's component views."""
    thetas = _thetas(scheme)
    databases = []
    for database in range(1, scheme.params.num_databases + 1):
        if product:
            laws, tv = {t: (views[t, database], views[t, 3 - database]) for t in thetas}, _product_tv
        else:
            laws = {t: views[t, database] for t in thetas}
            tv = total_variation
        distances = {(t1, t2): tv(laws[t1], laws[t2]) for t1 in thetas for t2 in thetas if t1 < t2}
        ok = all(d == 0 for d in distances.values())
        databases.append({"database": database, "total_variation": distances, "pass": ok})
    return {"databases": databases, "pass": all(d["pass"] for d in databases)}


def _product_tv(p: tuple[ExactDist, ExactDist], q: tuple[ExactDist, ExactDist]) -> Fraction:
    """Exact TV between the product laws p[0] x p[1] and q[0] x q[1]: 0 when
    both factors agree, else the sum over both supports, in integer counts
    over the four totals. The outer factor is one that differs; an outer x
    in only one support adds its whole mass."""
    if p == q:
        return Fraction(0)
    if p[0] == q[0]:
        p, q = p[::-1], q[::-1]
    (a, s0), (b, s1), (c, r0), (e, r1) = [(d.counts, d.total) for d in p + q]
    ys, acc = b.keys() | e.keys(), 0
    for x in a.keys() | c.keys():
        ax, cx = a.get(x, 0) * r0, c.get(x, 0) * s0
        if ax and cx:
            acc += sum(abs(ax * r1 * b.get(y, 0) - cx * s1 * e.get(y, 0)) for y in ys)
        else:
            acc += (ax + cx) * s1 * r1
    return Fraction(acc, 2 * s0 * r0 * s1 * r1)


def _check_collusion(scheme: SchemeDescriptor) -> None:
    """Refuse a privacy verdict at T > 1: views are audited one database at a time."""
    if scheme.params.collusion > 1:
        raise ValueError(f"privacy is audited per database; T = {scheme.params.collusion} > 1 is refused")


def check_privacy(scheme: SchemeDescriptor) -> dict:
    """Exact per-database privacy verdicts.

    For every database and every pair of desired indices, computes the total
    variation between the two views over a shared declared alphabet. Pass
    means every distance is exactly the rational 0.
    """
    _check_collusion(scheme)
    thetas = _thetas(scheme)
    views = _views(scheme, thetas)
    privacy = views._replace(
        finish=lambda tables: _privacy(scheme, views.finish(tables)),
        compose=lambda tables: _privacy(scheme, views.finish(tables), product=True),
    )
    return _tabulate(scheme, thetas, [privacy])[0]


def _correctness(scheme: SchemeDescriptor, thetas: Sequence[int]) -> _Projection:
    """Decoding errors, counted per (message, randomness, theta) triple. With
    c component sessions and e errors at a theta, c^2 - (c - e)^2 of a
    product's c^2 sessions fail there: each needs both components right."""
    sessions = 0
    errors = [0] * len(thetas)
    desired = scheme.desired

    def session(msg, stored, f, records):
        nonlocal sessions
        sessions += 1
        for i, (theta, record) in enumerate(zip(thetas, records)):
            if record.decoded != desired(msg, theta):
                errors[i] += 1
        return ()

    def verdict(cases: int, errors: list[int]) -> dict:
        return {"cases": cases * len(thetas), "errors": sum(errors), "pass": not any(errors)}

    return _Projection(
        lambda tables: verdict(sessions, errors), session,
        compose=lambda tables: verdict(sessions ** 2, [sessions ** 2 - (sessions - e) ** 2 for e in errors]),
    )


def exhaustive_correctness(scheme: SchemeDescriptor) -> dict:
    """Count decoding errors over every (message, randomness, theta) triple."""
    thetas = _thetas(scheme)
    return _tabulate(scheme, thetas, [_correctness(scheme, thetas)])[0]


def _expected_download(d: ExactDist) -> Fraction:
    """E[answer symbols other than None] under a law of ``(F, A, ...)`` outcomes."""
    sent = sum(count * sum(s is not None for answer in key[1:] for s in answer) for key, count in d.counts.items())
    return Fraction(sent, d.total)


def _download(scheme: SchemeDescriptor) -> _Projection:
    """Ideal and symbol-level download of the pass's first session (theta = 1),
    from the law of (F, A_1, ..., A_N).

    The ideal download is the sum over n of H(A_n | F, A_<n); the symbol
    download is the expected count of answer symbols other than None.
    """

    def session(msg, stored, f, records):
        return ((_f_symbols(f),) + records[0].answers,)

    def finish(tables):
        (joint,) = tables
        per_db = [conditional_entropy(joint, range(n), (n,)) for n in range(1, joint.arity)]
        return result(per_db, _expected_download(joint))

    def compose(tables):
        # A product's A_1 is (A_1, A_2) and its A_2 is (A_2, A_1), from independent copies.
        joint, h = tables[0], conditional_entropy
        per_db = [h(joint, (0,), (1,)) + h(joint, (0,), (2,)), h(joint, (0, 1), (2,)) + h(joint, (0, 2), (1,))]
        return result(per_db, 2 * _expected_download(joint))

    def result(per_db, symbol_download):
        block = scheme.block_length
        total = sum(per_db)
        return {
            "block_length": block,
            "ideal_download_per_message_bit": total / block,
            "ideal_download_per_db_per_block": per_db,
            "rate_ideal": block / total,
            "expected_symbol_download_per_block": symbol_download,
            "symbol_rate": Fraction(block) / symbol_download,
        }

    return _Projection(finish, session, compose=compose)


def _storage(scheme: SchemeDescriptor) -> _Projection:
    """Per-database H(S_n | side information available at answer time),
    tabulated per session. Without side information, a product's H(S_n) is
    its component's H(S_n) + H(S_other).
    """

    def finish(tables):
        return [conditional_entropy(table, (1,)) for table in tables]

    def compose(tables):
        bits = finish(tables)
        return [a + b for a, b in zip(bits, bits[::-1])]

    side = scheme.side_information
    # The pass reads one message's storage for each randomness value in turn;
    # without side information its keys depend on that storage alone.
    last = None, []

    def session(msg, stored, f, records):
        nonlocal last
        if side is not None:
            return list(zip(stored, side(msg, f)))
        if stored is not last[0]:
            last = stored, [(s, ()) for s in stored]
        return last[1]

    return _Projection(finish, session, stores=True, compose=compose if side is None else None)


def scheme_profile(scheme: SchemeDescriptor) -> dict:
    """Exhaustive summary from one pass: per-database answer entropies
    H(A_n | F, G) and expected symbol download per theta, and per-database
    ideal storage bits. A product's H(A_n | F, G) is its component's at n
    plus at the other database, and its download doubles."""
    profile, storage = _tabulate(scheme, _thetas(scheme), _profile(scheme))
    return {**profile, "storage_bits": storage}


def _profile(scheme: SchemeDescriptor) -> list[_Projection]:
    """``scheme_profile``'s projections over every theta: answer entropies
    and downloads, both from the (F, A_n) laws, then storage bits."""
    thetas = _thetas(scheme)
    databases = range(1, scheme.params.num_databases + 1)

    def session(msg, stored, f, records):
        f_sym = _f_symbols(f)
        return [(f_sym, answer) for r in records for answer in r.answers]

    def finish(tables):
        laws = dict(zip(product(thetas, databases), tables))
        return {
            "answer_entropy": {key: conditional_entropy(law, (0,)) for key, law in laws.items()},
            "expected_symbol_download": {t: sum(_expected_download(laws[t, n]) for n in databases) for t in thetas},
        }

    def compose(tables):
        h, download = finish(tables).values()
        return {
            "answer_entropy": {(t, n): h[t, n] + h[t, 3 - n] for t, n in h},
            "expected_symbol_download": {t: 2 * d for t, d in download.items()},
        }

    return [_Projection(finish, session, compose=compose), _storage(scheme)]


def _with_product(p: _Projection) -> _Projection:
    """``p`` finishing to the pair (its result, the product's ``compose``
    result) from the same tables: one pass measures a scheme and the two-copy
    product of it. A scheme that is itself a product is enumerated."""
    return p._replace(finish=lambda tables: (p.finish(tables), p.compose(tables)), compose=None)


def symmetrized_profiles(scheme: SchemeDescriptor) -> tuple[dict, dict]:
    """``scheme_profile`` of ``scheme`` and of ``symmetrize(scheme)``, from one
    pass over ``scheme``: each projection's finish profiles the scheme, and
    its compose the two-copy product, from the same tables."""
    profiles, storage = _tabulate(scheme, _thetas(scheme), [_with_product(p) for p in _profile(scheme)])
    return tuple({**profile, "storage_bits": bits} for profile, bits in zip(profiles, storage))


def _upload(scheme: SchemeDescriptor, thetas: Sequence[int]) -> _Projection:
    n_dbs = scheme.params.num_databases

    def session(msg, stored, f, records):
        return [r.queries[n] for n in range(n_dbs) for r in records]

    def finish(all_tables):
        per_db = []
        for n in range(n_dbs):
            tables = all_tables[n * len(thetas): (n + 1) * len(thetas)]
            raw = 0.0
            for symbols in zip(*(table.alphabets for table in tables)):
                size = len(frozenset().union(*symbols))
                raw += math.ceil(math.log2(size)) if size > 1 else 0
            ideal = max(entropy(table) for table in tables)
            per_db.append({"database": n + 1, "raw_bits": raw, "ideal_bits": ideal})
        return {"per_database": per_db, "note": "informational; download accounting never counts query bits"}

    return _Projection(finish, session)


def upload_bits(scheme: SchemeDescriptor) -> dict:
    """Informational query-uplink accounting (never part of the rate)."""
    thetas = _thetas(scheme)
    return _tabulate(scheme, thetas, [_upload(scheme, thetas)])[0]


# --- Concrete (finite-length) measurement through the scheme's coded layer --


def _answer_streams(scheme: SchemeDescriptor) -> _Projection:
    """The coded layer's exact laws: the two answer streams' models at the
    pass's first theta, DB1's cell model, and the total variation between the
    (A1, A2) laws at its first and last theta. DB1's stream is its answer bit;
    DB2's is its answer bit given a round-2 query. Positions are i.i.d., so a
    total variation of 0 means the coded stream lengths have one law at both.
    """

    def session(msg, stored, f, records):
        return [r.answers[0] + r.answers[1] for r in records] + [stored[0]]

    def finish(tables):
        *answers, cells = tables
        law = answers[0]
        if law.arity != 2 or not all(symbols <= {0, 1, None} for symbols in law.alphabets):
            raise ValueError(f"scheme {scheme.name!r}: its coded layer needs one answer symbol "
                             "per database per session, a bit or None")
        if cells.arity != 2 or not all(symbols <= {0, 1} for symbols in cells.alphabets):
            raise ValueError(f"scheme {scheme.name!r}: its coded layer needs DB1 to store "
                             "one (x1, x2) cell pair per position")
        counts = law.counts.items()
        p1 = Fraction(sum(c for (a1, _), c in counts if a1 == 1), law.total)
        p2 = Fraction(sum(c for (_, a2), c in counts if a2 == 1), sum(c for (_, a2), c in counts if a2 is not None))
        models = SourceModel.bernoulli(p1), SourceModel.bernoulli(p2)
        cell_model = SourceModel(tuple(sorted(cells.support())), dict(cells.items()))
        return models, cell_model, total_variation(law, answers[-1])

    return _Projection(finish, session, stores=True)


def answer_stream_models(scheme: SchemeDescriptor) -> tuple[SourceModel, SourceModel]:
    """Exact per-symbol models of the two answer streams, from enumeration."""
    return _tabulate(scheme, (1,), [_answer_streams(scheme)])[0][0]


def measure_rate(
    scheme: SchemeDescriptor,
    mode: str = "ideal",
    L: int | None = None,
    trials: int = 1,
    seed: int = 0,
) -> dict:
    """Rate statistics in ideal (exact entropy) or concrete (coded) accounting."""
    _check_flags(scheme, mode, L, trials, seed)
    projections = [_download(scheme)]
    if mode == "concrete" and scheme.coded is not None:
        projections.append(_answer_streams(scheme))
    download, *laws = _tabulate(scheme, (1,), projections)
    return _finish_rate(scheme, download, mode, L, trials, seed, laws[0][0] if laws else None)


def _check_flags(
    scheme: SchemeDescriptor, mode: str, L: int | None, trials: int, seed: int, sw_blocks: int = 1,
    codec: CodecConfig | None = None,
) -> None:
    """Reject bad accounting flags before any session runs."""
    if mode not in ("ideal", "concrete"):
        raise ValueError("mode must be 'ideal' or 'concrete'")
    check_ints(seed=seed)
    if codec is not None and not isinstance(codec, CodecConfig):
        raise ValueError(f"codec must be a CodecConfig, got {codec!r}")
    if mode == "concrete":
        check_ints(L=1 if L is None else L, trials=trials, sw_blocks=sw_blocks)
        if L is None or L < 1:
            raise ValueError("concrete mode needs a message length L >= 1")
        if trials < 1:
            raise ValueError("trials must be at least 1")
        if scheme.coded is None and L % scheme.block_length != 0:
            raise ValueError(f"L must be a multiple of the native block {scheme.block_length}")
        if scheme.coded is not None and sw_blocks < 1:
            raise ValueError(f"blocks must be at least 1, got {sw_blocks}")


def _finish_rate(
    scheme: SchemeDescriptor, result: dict, mode: str, L: int | None, trials: int, seed: int,
    models: tuple[SourceModel, SourceModel] | None = None,
) -> dict:
    """Add concrete accounting, in that mode, to ``_download``'s result. A coded
    scheme's download is the mean of ``trials`` coded sessions under
    ``_answer_streams``' ``models``, listed with their decode errors."""
    if mode != "concrete":
        return result
    concrete = {"L": L, "trials": trials}
    if scheme.coded is not None:
        sessions = [scheme.coded.session(1, L, derive_seed(seed, "rate", trial), models) for trial in range(trials)]
        values = [run["download_bits"] / L for run in sessions]
        mean = sum(values) / trials
        variance = sum((v - mean) ** 2 for v in values) / trials
        half_width = 1.96 * math.sqrt(variance / trials) if trials > 1 else 0.0
        concrete["sessions"] = sessions
        concrete["decode_errors"] = sum(run["decode_errors"] for run in sessions)
    else:
        # Uncoded schemes ship answer symbols as-is: the download is exact.
        mean = float(Fraction(result["expected_symbol_download_per_block"]) / scheme.block_length)
        half_width = 0.0
    result["concrete"] = {
        **concrete,
        "download_per_message_bit_mean": mean,
        "download_per_message_bit_ci95": (mean - half_width, mean + half_width),
        "rate_mean": 1.0 / mean,
    }
    return result


def measure_overhead(scheme: SchemeDescriptor) -> dict:
    """Ideal storage overhead, from the exact per-database storage entropy."""
    return _finish_overhead(scheme, _tabulate(scheme, (), [_storage(scheme)])[0])


def _finish_overhead(scheme: SchemeDescriptor, ideal: list[float]) -> dict:
    """Ideal overhead accounting from ``_storage``'s per-database bits."""
    return {
        "ideal_bits_per_block": ideal,
        "alpha_ideal": storage_overhead(ideal, scheme.block_length, scheme.params.num_messages),
    }


def _concrete_overhead(
    scheme: SchemeDescriptor, L: int, seed: int, codec: CodecConfig, cell_model: SourceModel | None,
) -> dict:
    """Concrete overhead at message length L. A scheme with a coded layer is
    charged its coded storage bits, under ``_answer_streams``' cell model; one
    without stores incompressible bits, charged at face value."""
    if scheme.coded is not None:
        bits = scheme.coded.storage_bits(L, derive_seed(seed, "storage"), codec, cell_model)
    else:
        # L native blocks' raw storage; L is a multiple of the block.
        blocks = L // scheme.block_length
        bits = tuple(
            float(blocks * len(s))
            for s in scheme.store(next(iter(scheme.message_space()))[0])
        )
    return {
        "L": L,
        "bits_per_database": bits,
        "alpha_concrete": storage_overhead(bits, L, scheme.params.num_messages),
    }


# --- Entropy identities and converse spot checks ---------------------------


def _coupled(scheme: SchemeDescriptor) -> list[_Projection]:
    """The coupled joint's projection in a list, [] unless single-round (decided
    only here). It finishes to the law of messages, randomness and the sessions
    at thetas (1, 2), coupled through their shared sample as the identities and
    converse read them, and to the coordinate of each named group."""
    if scheme.params.rounds != 1:
        return []
    databases = range(1, scheme.params.num_databases + 1)
    names = ["W1", "W2", "F"] + [
        f"{kind}{n}^{theta}" for theta in (1, 2) for kind in "QA" for n in databases
    ]
    groups = {name: (i,) for i, name in enumerate(names)}

    def session(msg, stored, f, records):
        key = (tuple(msg[0]), tuple(msg[1]), _f_symbols(f))
        for record in records:
            key += record.queries + record.answers
        return (key,)

    return [_Projection(lambda tables: (tables[0], groups), session)]


def verify_entropy_identities(scheme: SchemeDescriptor) -> list[dict]:
    """Exact-enumeration checks of the answer-entropy identities that pin the
    storage lower bound for single-round rate-2/3 zero-error schemes."""
    coupled = _coupled(scheme)
    if not coupled:
        raise ValueError("entropy identities are defined for single-round schemes")
    return _identities(scheme, *_tabulate(scheme, (1, 2), coupled)[0])


def real_holds(value: float, target: float, relation: str = "==") -> bool:
    """``value relation target`` for reals, within ``REAL_TOLERANCE``: the one
    place a real-valued verdict is decided."""
    return {
        "==": abs(value - target) <= REAL_TOLERANCE,
        "<=": value <= target + REAL_TOLERANCE,
        ">=": value >= target - REAL_TOLERANCE,
    }[relation]


def _check(name: str, value: float, target: float, relation: str = "==") -> dict:
    """One real-valued check, as a report record."""
    ok = real_holds(value, target, relation)
    return {"name": name, "value": value, "target": target, "relation": relation, "pass": ok}


def _identities(scheme: SchemeDescriptor, joint: ExactDist, g: dict) -> list[dict]:
    L = scheme.block_length
    half = L / 2
    h = conditional_entropy
    return [
        _check("H(A1[1] | W1, F, G)", h(joint, g["W1"] + g["F"], g["A1^1"]), half),
        _check("H(A2[2] | W1, F, G)", h(joint, g["W1"] + g["F"], g["A2^2"]), half),
        _check("H(A2[2] | W2, F, G)", h(joint, g["W2"] + g["F"], g["A2^2"]), half),
        _check("H(A2[2] | W1, A2[1], F, G)", h(joint, g["W1"] + g["A2^1"] + g["F"], g["A2^2"]), half),
        _check("H(A2[1], A2[2] | F, G)", h(joint, g["F"], g["A2^1"] + g["A2^2"]), 3 * L / 2, ">="),
        _check(
            "I(A2[1]; A2[2] | W1, F, G)",
            conditional_mutual_information(joint, g["A2^1"], g["A2^2"], g["W1"] + g["F"]),
            0.0,
        ),
        _check(
            "I(A2[1]; A2[2] | W2, F, G)",
            conditional_mutual_information(joint, g["A2^1"], g["A2^2"], g["W2"] + g["F"]),
            0.0,
        ),
        _check(
            "H(W2 | answers[2], F, G)",
            h(joint, g["F"] + g["Q1^2"] + g["Q2^2"] + g["A1^2"] + g["A2^2"], g["W2"]),
            0.0,
        ),
    ]


def verify_converse_bounds(scheme: SchemeDescriptor) -> list[dict]:
    """Numeric converse spot checks on an implemented scheme.

    For single-round schemes, with R the exact symbol rate, instantiates the
    zero-error (o(L) = 0) forms: the retrieved-information upper bound
    I(W2; Q[1], A[1], F | W1, G) <= L(1/R - 1) and the induction lower
    bound I(...) >= L * T / N. Every scheme also gets the exact
    rate-vs-capacity check.
    """
    return exact_sections(scheme)["converse"]


def _converse(scheme: SchemeDescriptor, download: dict, coupled: list) -> list[dict]:
    """The converse checks from ``_download``'s result and the list of
    ``_coupled``'s results."""
    params = scheme.params
    capacity = mtpir_capacity(params)
    rate = download["symbol_rate"]
    checks = [
        {
            "name": "symbol rate <= capacity",
            "value": rate,
            "target": capacity,
            "relation": "<=",
            "pass": check_rate_admissible(rate, params),
        },
        _check("ideal rate <= capacity", download["rate_ideal"], float(capacity), "<="),
    ]
    for joint, g in coupled:
        info = conditional_mutual_information(
            joint,
            g["W2"],
            g["Q1^1"] + g["Q2^1"] + g["A1^1"] + g["A2^1"] + g["F"],
            g["W1"],
        )
        L = scheme.block_length
        upper = L * (1 / float(rate) - 1)
        lower = L * params.collusion / params.num_databases
        checks.append(_check("I(W2; Q[1], A[1], F | W1, G) <= L(1/R - 1)", info, upper, "<="))
        checks.append(_check("I(W2; Q[1], A[1], F | W1, G) >= L*T/N", info, lower, ">="))
    return checks


def exact_sections(scheme: SchemeDescriptor, **extra: _Projection) -> dict:
    """The rate, overhead, converse and entropy-identity sections from one pass
    over every theta, and each ``extra`` projection's result from the same
    pass under its keyword. The identities, premises of the single-round
    storage bound at capacity, are None unless the scheme is single-round and
    its symbol rate is capacity."""
    coupled = _coupled(scheme)
    projections = [_download(scheme), _storage(scheme), *coupled, *extra.values()]
    download, storage, *results = _tabulate(scheme, _thetas(scheme), projections)
    coupled, results = results[:len(coupled)], results[len(coupled):]
    at_capacity = coupled and download["symbol_rate"] == mtpir_capacity(scheme.params)
    return {
        "rate": download,
        "overhead": _finish_overhead(scheme, storage),
        "converse": _converse(scheme, download, coupled),
        "entropy_identities": _identities(scheme, *coupled[0]) if at_capacity else None,
        **dict(zip(extra, results)),
    }


# --- Report assembly --------------------------------------------------------


def fraction_str(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def real_str(value: float) -> str:
    return format(float(value), ".12g")


def outcome_str(outcome: tuple) -> str:
    return "|".join("null" if s is None else str(s) for s in outcome)


def dist_table(d: ExactDist) -> dict[str, str]:
    """``outcome_str -> "p/q"`` in lowest terms, sorted (stably) by outcome string."""
    total = d.total
    table = {}
    for key, count in sorted(((outcome_str(o), c) for o, c in d.counts.items()), key=itemgetter(0)):
        g = math.gcd(count, total)
        table[key] = f"{count // g}/{total // g}"
    return table


def jsonify(value):
    """``value`` as JSON-ready data: rationals as ``fraction_str``, reals as
    ``real_str``, tuple keys joined by commas and tuples as lists."""
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, float):
        return real_str(value)
    if isinstance(value, dict):
        return {_json_key(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def _json_key(key) -> str:
    if isinstance(key, tuple):
        return ",".join(str(k) for k in key)
    return str(key)


def audit_sections(
    scheme: SchemeDescriptor,
    mode: str = "ideal",
    L: int = 10_000,
    trials: int = 5,
    seed: int = 0,
    codec: CodecConfig | None = None,
    sw_blocks: int = 200,
) -> dict:
    """The full audit battery for one scheme, as plain values: every report
    section, with ``views`` each database's view as an ``ExactDist`` keyed
    (theta, database), and the overall ``"pass"``.

    Every exact section is a projection of one pass over all desired indices;
    in concrete mode that pass also gives a coded layer its exact models, and
    the coded sessions behind the rate must decode without error to pass.
    """
    _check_flags(scheme, mode, L, trials, seed, sw_blocks, codec)
    _check_collusion(scheme)
    codec = CodecConfig(seed=seed) if codec is None else codec
    params = scheme.params
    thetas = _thetas(scheme)
    coded = scheme.coded if mode == "concrete" else None
    streams = {"streams": _answer_streams(scheme)} if coded is not None else {}
    sections = exact_sections(
        scheme, views=_views(scheme, thetas), correctness=_correctness(scheme, thetas),
        upload=_upload(scheme, thetas), **streams,
    )
    stream_models, cell_model, stream_tv = sections.pop("streams", (None, None, None))
    privacy = _privacy(scheme, sections["views"])
    rate = _finish_rate(scheme, sections["rate"], mode, L, trials, seed, stream_models)
    overhead, converse, identities = sections["overhead"], sections["converse"], sections["entropy_identities"]
    if mode == "concrete":
        overhead["concrete"] = _concrete_overhead(scheme, L, seed, codec, cell_model)
    capacity_check = {
        "capacity": mtpir_capacity(params),
        "symbol_rate": rate["symbol_rate"],
        "rate_ideal": rate["rate_ideal"],
        # The converse opens with the symbol and ideal rate-vs-capacity checks.
        "pass": converse[0]["pass"] and converse[1]["pass"],
    }
    leakage = None
    verdicts = [privacy["pass"], sections["correctness"]["pass"]]
    if coded is not None:
        leakage = {
            "total_variation": stream_tv,
            "note": "exact, between the (A1, A2) symbol laws at the first and last theta; positions are "
                    "i.i.d. and coded under public models, so at 0/1 the coded lengths have one law",
        }
        overhead["sw"] = coded.bin_failures(codec, sw_blocks, seed)
        verdicts.append(rate["concrete"]["decode_errors"] == 0)
    verdicts += [c["pass"] for c in (identities or []) + converse]
    return {
        **sections,
        "scheme": scheme.name,
        "parameters": {
            "num_messages": params.num_messages,
            "num_databases": params.num_databases,
            "collusion": params.collusion,
            "rounds": params.rounds,
            "block_length": scheme.block_length,
            "mode": mode,
            "seed": seed,
        },
        "privacy": privacy,
        "rate": rate,
        "capacity_check": capacity_check,
        "length_leakage": leakage,
        "pass": all(verdicts),
    }


def build_audit_report(scheme: SchemeDescriptor, **options) -> dict:
    """``audit_sections(scheme, **options)`` as its JSON document: each
    database's view at theta 1 as a ``dist_table``, every value ``jsonify``'d."""
    sections = audit_sections(scheme, **options)
    views = sections["views"]
    return jsonify({
        **sections,
        "views": {f"database_{n}_theta_1": dist_table(views[1, n]) for n in range(1, scheme.params.num_databases + 1)},
    })
