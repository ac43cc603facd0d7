"""Property tests of canonical_json's splice: for random str-keyed dicts and
every set of their top-level keys, splicing the keys' texts gives the plain
encode byte for byte, and the repr-joined text of a list of finite floats is
its canonical text; and float_texts gives the repr of every float, NaN and the
infinities included."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from pllab.serialize import canonical_json, float_texts  # noqa: E402

FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-5, 1.0 / 3.0, 1e300, -2.5e-308]))
KEYS = st.text(max_size=6)           # any code points: escapes, non-ASCII
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS,
                   st.text(max_size=4))
VALUES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(KEYS, inner, max_size=3)), max_leaves=8)


@given(st.dictionaries(KEYS, VALUES, max_size=5))
def test_splice_equals_plain_encode_for_every_key_set(obj):
    plain = canonical_json(obj)
    keys = sorted(obj)
    for mask in range(1, 1 << len(keys)):
        texts = {k: canonical_json(obj[k])
                 for i, k in enumerate(keys) if mask >> i & 1}
        assert canonical_json(obj, texts) == plain


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)),
       st.dictionaries(KEYS, VALUES, max_size=3), KEYS)
def test_repr_joined_float_list_is_its_canonical_text(values, rest, key):
    obj = dict(rest, **{key: values})
    text = "[" + ",".join(map(float.__repr__, values)) + "]"
    assert text == canonical_json(values)
    assert canonical_json(obj, {key: text}) == canonical_json(obj)


@given(st.lists(FLOATS, max_size=40))
def test_float_texts_are_repr(values):
    # padded to a third by a value orjson's text is kept for, then by one
    # repr rewrites, so the values take both of float_texts's paths
    for pad in (1.5, 1e-300):
        padded = values + [pad] * (2 * len(values) + 1)
        assert float_texts(padded) == list(map(float.__repr__, padded))
