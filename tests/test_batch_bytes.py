"""Byte pins of `classify` and `point` batch output, and the agreement of
each classify row with the per-item public functions.

Both batches are generated here from fixed seeds. The pinned hashes were
taken from the code that still built one SpectrumReport and one
SharpReport per row; a batch path that moves any byte of either output,
or any bit of a sharp margin, fails here.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from hypercurv import cli, classify, extrinsic

_PATTERNS = ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
# A split moves one member of a multiple cluster by this factor times the
# cluster threshold 1e-8 (1 + max|l|): 100 is cut, 1 and 1.5 fall inside
# the indeterminate band (1/2, 2], 0.1 and 4 fall outside it on either side.
_SPLITS = (None, None, 100.0, 1.0, 1.5, 0.1, 4.0)
_CATALOG = ([1.0, 1.0, -1.0, -1.0], [math.sqrt(3.0)] + [-1.0 / math.sqrt(3.0)] * 3,
            [1.0 / math.sqrt(3.0)] * 3 + [-math.sqrt(3.0)], [0.0] * 4)


def _sym(rng, n, scale, minimal):
    M = rng.normal(0.0, scale, size=(n, n))
    M = (M + M.T) / 2
    return M - np.trace(M) / n * np.eye(n) if minimal else M


def _tracefree_nabla(rng, n, scale):
    """A totally symmetric rank-3 tensor on R^n with vanishing traces A_iik."""
    T = rng.normal(0.0, scale, size=(n, n, n))
    T = sum(T.transpose(p) for p in itertools.permutations(range(3))) / 6.0
    g, v = np.eye(n), np.einsum("iik->k", T)
    sym = (np.einsum("ij,k->ijk", g, v) + np.einsum("ik,j->ijk", g, v)
           + np.einsum("jk,i->ijk", g, v)) / 3.0
    # the trace of sym(g v) is (n + 2)/3 v
    return T - 3.0 / (n + 2) * sym


def _flat(T):
    return [float(T[i - 1, j - 1, k - 1]) for i, j, k in extrinsic.NABLA_ORDER]


def _classify_batch(seed=11, size=2000):
    """n = 4 items: the five multiplicity patterns, with a split gap cut,
    in the band or outside it on either side; half minimal; c in {-1, 0, 1}
    or left out; lambda, diagonal A or a rotated full A; a few parallel, a
    few with trace-free nablaA and hessS."""
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(size):
        scale = rng.uniform(0.5, 3.0)
        minimal = rng.random() < 0.5
        pattern = list(_PATTERNS[rng.integers(len(_PATTERNS))])
        rng.shuffle(pattern)
        value, lam = rng.uniform(-scale, scale), []
        for size_k in pattern:
            lam += [value] * size_k
            value -= scale * rng.uniform(0.15, 0.8)
        if minimal:
            mean = sum(lam) / 4
            lam = [x - mean for x in lam]
        split = _SPLITS[rng.integers(len(_SPLITS))]
        if split is not None and max(pattern) > 1:
            pos = list(itertools.accumulate(pattern))[int(np.argmax(pattern))] - 1
            gap = split * 1e-8 * (1.0 + max(abs(x) for x in lam))
            lam[pos] -= gap
            if minimal:
                lam = [x + gap / 4 for x in lam]
        rng.shuffle(lam)
        item = {}
        if rng.random() < 0.5:
            item["n"] = 4
        if rng.random() < 0.8:
            item["c"] = float(rng.choice([-1.0, 0.0, 1.0]))
        form = rng.random()
        if form < 0.5:
            item["lambda"] = lam
        elif form < 0.7:
            item["A"] = np.diag(lam).tolist()
        else:
            Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
            A = Q @ np.diag(lam) @ Q.T
            item["A"] = ((A + A.T) / 2).tolist()
        if rng.random() < 0.05:
            item["parallel"] = True
        elif minimal and rng.random() < 0.1:
            item["nablaA"] = _flat(_tracefree_nabla(rng, 4, scale))
            item["hessS"] = _sym(rng, 4, scale, False).tolist()
        batch.append(item)
    return batch


def _point_batch(seed=13, size=500):
    """Mixed items: n in {3, 5, 6} with A or lambda, some with nablaA and
    hessS; parallel catalog spectra; (3, 1) spectra; generic n = 4 full A
    or lambda, half minimal, half of those with nablaA and hessS, flat or
    as a 4x4x4 array; c in {-1, 0, 1}."""
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(size):
        r = rng.random()
        c = float(rng.choice([-1.0, 0.0, 1.0]))
        scale = rng.uniform(0.5, 2.0)
        minimal = rng.random() < 0.5
        if r < 0.15:
            n = int(rng.choice([3, 5, 6]))
            A = _sym(rng, n, scale, minimal)
            item = {"n": n, "c": c}
            if rng.random() < 0.5:
                item["A"] = A.tolist()
            else:
                item["lambda"] = np.linalg.eigvalsh(A).tolist()
            if rng.random() < 0.3:
                item["nablaA"] = _tracefree_nabla(rng, n, scale).tolist()
                item["hessS"] = _sym(rng, n, scale, False).tolist()
        elif r < 0.25:
            lam = list(_CATALOG[rng.integers(len(_CATALOG))])
            rng.shuffle(lam)
            item = {"n": 4, "c": 1.0, "lambda": lam, "parallel": True}
        elif r < 0.3:
            a = rng.uniform(-scale, scale)
            lam = [a, a, a, -3.0 * a if minimal else rng.uniform(-scale, scale)]
            rng.shuffle(lam)
            item = {"n": 4, "c": c, "lambda": lam}
        else:
            A = _sym(rng, 4, scale, minimal)
            if rng.random() < 0.5:
                item = {"n": 4, "c": c, "A": A.tolist()}
            else:
                item = {"n": 4, "c": c, "lambda": np.linalg.eigvalsh(A).tolist()}
            if minimal and rng.random() < 0.5:
                nabla = _tracefree_nabla(rng, 4, scale)
                item["nablaA"] = _flat(nabla) if rng.random() < 0.5 else nabla.tolist()
                item["hessS"] = _sym(rng, 4, scale, False).tolist()
        batch.append(item)
    return batch


def _cli(command, batch):
    """(exit code, stdout, warning texts) of the command on the batch."""
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        code = cli.main([command, json.dumps(batch)])
    return code, out.getvalue(), [str(w.message) for w in caught]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command, batch, stdout, warned", [
    ("classify", _classify_batch,
     "8ec0ad9caf6e33943ce23dd95f25e39cfe9cdaf205933912780535a2e95b0473",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("point", _point_batch,
     "2f7e3e4a6ac01f43cb1e3e843cf4624f99843b5a73da41891137d772ee48607b",
     "004463de1ddfee923345ecdb8904a3f7bc29a3dc6348a17b96d0256418253ef0"),
], ids=["classify", "point"])
def test_batch_output_keeps_its_bytes(command, batch, stdout, warned):
    code, out, messages = _cli(command, batch())
    assert code == 0
    assert (_sha(out), _sha("\n".join(messages))) == (stdout, warned)


def _exact(value):
    """value as canonical JSON, which keeps every bit of a float and its sign."""
    return json.dumps(value, sort_keys=True)


def test_classify_rows_equal_the_per_item_reports_and_the_point_blocks():
    # each classify row is the item's spectrum_report, also of its raw
    # spectrum, and the spectrum block of its point report; each minimal
    # row's margins are its sharp_inequalities margins, whose bits and
    # equality flags are pinned, and every other row has none
    batch = _classify_batch()
    code, out, _ = _cli("classify", batch)
    assert code == 0
    rows = json.loads(out)
    code, out, _ = _cli("point", batch)
    assert code == 0
    blocks = [report["spectrum"] for report in json.loads(out)]
    sharp = []
    for item, row, block in zip(batch, rows, blocks, strict=True):
        state = extrinsic.PointState.from_dict(item)
        assert _exact(row) == _exact(classify.spectrum_report(state).to_dict()) == _exact(block)
        if "lambda" in item:
            assert _exact(classify.spectrum_report(item["lambda"]).to_dict()) == _exact(row)
        if state.minimal:
            report = classify.sharp_inequalities(state)
            assert _exact(report.margins) == _exact(row["margins"])
            sharp.append([report.margins, report.equality])
        else:
            assert row["margins"] == {}
    assert 0 < len(sharp) < len(rows)
    assert any(row["indeterminate"] for row in rows)
    assert any(not row["indeterminate"] for row in rows)
    assert {tuple(row["partition"]) for row in rows} >= {(1, 1, 1, 1), (2, 2), (4,)}
    assert _sha(_exact(sharp)) == \
        "f3726a3bbe9bd7267c75edb3531935a9d5c9acfa3ab05e9fa4182ac33c14d189"
