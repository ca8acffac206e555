"""Tests for data assets and the transformation predicates (fast paths)."""

import pytest

from repro.curve.g1 import G1
from repro.errors import ProtocolError, UnsatisfiedConstraintError
from repro.field.fr import MODULUS as R
from repro.kzg import SRS, commit_message
from repro.plonk.circuit import CircuitBuilder
from repro.primitives.encoding import bytes_to_elements
from repro.primitives.mimc import mimc_decrypt_ctr
from repro.storage import ContentStore
from repro.core.tokens import DataAsset
from repro.core.transformations import Aggregation, Duplication, Partition, Processing


class TestDataAsset:
    def test_create_encrypts_and_commits(self):
        asset = DataAsset.create([1, 2, 3], key=7, nonce=11)
        assert asset.ciphertext.blocks != (1, 2, 3)
        assert mimc_decrypt_ctr(7, asset.ciphertext) == [1, 2, 3]
        # [k] commits to d(X) = k + rho (X - 1): with tau known, [d(tau)].
        srs = SRS.generate(4, tau=5)
        assert asset.key_blinder != 0
        expected = G1.generator() * ((7 + asset.key_blinder * 4) % R)
        assert asset.key_commitment(srs) == expected
        # [d] commits to the entries over H_4 (one padding 0), blinded.
        assert asset.data_blinder != 0
        point = asset.data_commitment(srs)
        assert point == commit_message(srs, [1, 2, 3], asset.data_blinder)
        assert asset.data_commitment(srs) is point  # once per SRS
        assert asset.data_commitment(SRS.generate(4, tau=6)) != point

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            DataAsset.create([])

    def test_from_bytes(self):
        asset = DataAsset.from_bytes(b"hello zkdet", key=3, nonce=4)
        decrypted = mimc_decrypt_ctr(3, asset.ciphertext)
        assert decrypted == bytes_to_elements(b"hello zkdet")

    def test_publish_and_public_view(self):
        store = ContentStore()
        asset = DataAsset.create([5, 6], key=1, nonce=2)
        uri = asset.publish(store, owner="alice")
        assert store.get(uri) == asset.serialized_ciphertext()
        # The view names [d] under the SRS it is asked for, committed once.
        srs = SRS.generate(4, tau=5)
        view = asset.public_view(srs)
        assert view.uri == uri
        assert view.num_entries == 2
        assert view.data_commitment is asset.data_commitment(srs)
        other = SRS.generate(4, tau=6)
        assert asset.public_view(other).data_commitment == asset.data_commitment(other)
        assert asset.public_view(other).data_commitment != view.data_commitment
        # The public view carries no plaintext or key material.
        assert not hasattr(view, "plaintext")
        assert not hasattr(view, "key")

    def test_size_bytes(self):
        assert DataAsset.create([0] * 10, key=1, nonce=1).size_bytes == 310


def check_transformation_circuit(transformation, sources, expect_ok=True):
    """Build just the f-relation circuit and check satisfaction."""
    derived = transformation.apply(sources)
    builder = CircuitBuilder()
    src_wires = [[builder.var(v) for v in s] for s in sources]
    dst_wires = [[builder.var(v) for v in d] for d in derived]
    transformation.constrain(builder, src_wires, dst_wires)
    builder.compile()
    return derived


class TestDuplication:
    def test_apply_and_circuit(self):
        derived = check_transformation_circuit(Duplication(), [[1, 2, 3]])
        assert derived == [[1, 2, 3]]

    def test_output_sizes(self):
        assert Duplication().output_sizes([4]) == [4]
        with pytest.raises(ProtocolError):
            Duplication().output_sizes([4, 5])

    def test_circuit_rejects_mutation(self):
        builder = CircuitBuilder()
        src = [builder.var(v) for v in (1, 2)]
        dst = [builder.var(v) for v in (1, 99)]
        Duplication().constrain(builder, [src], [dst])
        with pytest.raises(UnsatisfiedConstraintError):
            builder.compile()

    def test_circuit_rejects_size_mismatch(self):
        builder = CircuitBuilder()
        with pytest.raises(ProtocolError):
            Duplication().constrain(builder, [[builder.var(1)]], [[builder.var(1), builder.var(2)]])


class TestAggregation:
    def test_apply_preserves_order(self):
        derived = check_transformation_circuit(Aggregation(), [[1, 2], [3], [4, 5]])
        assert derived == [[1, 2, 3, 4, 5]]

    def test_output_sizes(self):
        assert Aggregation().output_sizes([2, 3]) == [5]
        with pytest.raises(ProtocolError):
            Aggregation().output_sizes([2])

    def test_circuit_rejects_wrong_concat(self):
        builder = CircuitBuilder()
        srcs = [[builder.var(1), builder.var(2)], [builder.var(3)]]
        dst = [builder.var(v) for v in (1, 3, 2)]  # reordered
        Aggregation().constrain(builder, srcs, [dst])
        with pytest.raises(UnsatisfiedConstraintError):
            builder.compile()


class TestPartition:
    def test_apply_is_exhaustive_and_disjoint(self):
        part = Partition(sizes=(2, 1, 2))
        derived = check_transformation_circuit(part, [[1, 2, 3, 4, 5]])
        assert derived == [[1, 2], [3], [4, 5]]
        flat = [v for d in derived for v in d]
        assert flat == [1, 2, 3, 4, 5]  # exhaustive, mutually exclusive

    def test_invalid_shapes(self):
        with pytest.raises(ProtocolError):
            Partition(sizes=(3,))
        with pytest.raises(ProtocolError):
            Partition(sizes=(0, 2))
        with pytest.raises(ProtocolError):
            Partition(sizes=(2, 2)).output_sizes([5])
        with pytest.raises(ProtocolError):
            Partition(sizes=(2, 2)).apply([[1, 2, 3]])

    def test_shape_key_includes_sizes(self):
        assert Partition(sizes=(1, 2)).shape_key([3]) != Partition(sizes=(2, 1)).shape_key([3])


class TestProcessing:
    def test_custom_predicate(self):
        double = Processing(
            apply_fn=lambda srcs: [[(2 * v) % R for v in srcs[0]]],
            constrain_fn=lambda b, s, d: [
                b.assert_equal(b.scale(x, 2), y) for x, y in zip(s[0], d[0])
            ],
            out_sizes_fn=lambda sizes: [sizes[0]],
            tag="double",
        )
        derived = check_transformation_circuit(double, [[3, 4]])
        assert derived == [[6, 8]]
        assert "double" in double.shape_key([2])

    def test_requires_all_functions(self):
        with pytest.raises(ProtocolError):
            Processing(apply_fn=lambda s: s)
