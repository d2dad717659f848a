"""Byte-level pins of the JSON and text forms of links and tower elements.

The digests are SHA-256 of `json.dumps(..., sort_keys=True)` of the
serialised form and of `repr`; a change of the internal representation of
tower elements must leave both unchanged.
"""

import hashlib
import json

import pytest

from sblinks.field_tower import TowerField


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(json_data, text):
    return _sha(json.dumps(json_data, sort_keys=True)), _sha(text)


def two_radical_elements():
    """Elements of K[cbrt t1][sqrt t2] and K[cbrt t1][cbrt((t2-1)/(27 t1))],
    with zero coordinates, denominators and a lift from K[sqrt t2]."""
    K = TowerField.rational(2)
    t1, t2 = K.t_var(0), K.t_var(1)
    M = K.extend("u", 3, t1).extend("s", 2, t2)
    N = K.extend("u", 3, t1).extend("v", 3, (t2 - K.one()) / (K.scalar(27) * t1))
    u, s = M.gen("u"), M.gen("s")
    a = t1.lift_to(M) + u * s - M.zeta() * u * u
    b = (t2.lift_to(M) + M.scalar(3) * s) / (u + M.one())
    S = K.extend("s", 2, t2)
    lifted = (S.gen("s") + S.scalar(2)).lift_to(M)
    nu, nv = N.gen("u"), N.gen("v")
    c = nv * nv * t1.lift_to(N) - nu + N.scalar(5)
    d = (t2.lift_to(N) + nv) / (nu + nv * nv * t1.lift_to(N))
    return {
        "a": a,
        "a_inv": a.inverse(),
        "b": b,
        "lifted": lifted,
        "s": s,
        "zero": M.zero(),
        "c": c,
        "d": d,
        "d_conj": d.galois(N.galois_generator("v")),
    }


LINK_PINS = {
    "link_at_coords": (
        "9ed5cc9a0ed30f36a7bfccdf28f440e4428b329354d53617d9096aabb50b5d56",
        "097758e4a86289828bb777b96444fc952661debe77f17ac7640c1defdc5be054",
    ),
    "link_at_unit": (
        "efa7e4de414f2ccbe026e28abc28c2e0ab2d98f1330f8e6e2aeff951a66c277f",
        "1a87acb8a98f76418b2944d93862f1f420b12e53c33ca3bf943a9837ba406f14",
    ),
    "six_link": (
        "9209d52ebd3fab3dddaf6aab0558a7b2f24981795b101f700382fbf7fa82a15e",
        "52d855581fc1ab51f4884dd7d09d04c813c308b7b46a43f9bef12084b8ec7ca5",
    ),
}

ELEMENT_PINS = {
    "a": (
        "5641e90858130f5c956f3f8baa64b0f634b9b56070782d52ceffba7a4a044b34",
        "6ffe82f555ce48b6ea8862c78b5d48ec82758b7894bfee8a8ce7c6f6f79ef1fe",
    ),
    "a_inv": (
        "e1a0815e942e7ae98c7aa4224d19e3bfffad779eb3993f4e2fabf20dc29d230f",
        "e829d5ef29b1cf7be794ce5ecc1b7715b62f7039431c26d5c7d940ed363fd54a",
    ),
    "b": (
        "61d9469afa8b305b9f8b621a761b4906960b522540172b465344ed99d6f59728",
        "c0fd1a345d732a1ce646219ea57fcbdb069b6fedaa69987be7cbcb8dac9cd340",
    ),
    "c": (
        "6554bdf1de5ae08db09bc6ec0d62650e58cdf7e31a6cdd9e391207263f855958",
        "9a000a9f4caa8c7ca4b275750b6d2bc657f7642c14a6ebd126a5549f5ca5e8f2",
    ),
    "d": (
        "0580dc057f4c3defc408b22398c5ca66bc8ac094e92482a29b854d6e3ab2b489",
        "cf1c74cc52eb198d359285900855d029eeacbba12429b0b1e52fd7a085b3b2b2",
    ),
    "d_conj": (
        "51a38e174a52fffb9a7ecbb46518fa6aa06a27a8ecaf48414fb0931ae398338c",
        "5be05e94b4d4a383d419aeddf774dc721a762539f214d93b07069d43b15462c5",
    ),
    "lifted": (
        "27d67da44301681f2fcc706279a1c3cefdbf99aa7d16f84e4b61f1f6e266f9d8",
        "e7b5504c197c830854b04cf3b2042f93770baf5622302e094b1cc3a5d08a7860",
    ),
    "s": (
        "38ea86d6b350eb644d43edf9daac8e706bfb6c9d2acd81e754f4435fa61049ef",
        "779a911743c6a8fa565557676743a0d7fe3df59d32c3b6987f0e2111ae4892be",
    ),
    "zero": (
        "7a71390068cb01c6b366c7ed5c4c532aa72071c9413df87c5ecbe1e64c9e5878",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    ),
}


@pytest.mark.parametrize("name", sorted(LINK_PINS))
def test_link_bytes_pinned(name, request, link_json):
    link = request.getfixturevalue(name)
    assert _digests(link_json(link), repr(link)) == LINK_PINS[name]


def test_two_radical_element_bytes_pinned():
    got = {
        k: _digests(e.to_json(), repr(e)) for k, e in two_radical_elements().items()
    }
    assert got == ELEMENT_PINS
