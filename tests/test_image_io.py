"""Round trips and exact byte layouts for the image interchange formats."""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import detect_reference
from rayreg import image_io


# Masks as callers hand them over: bool, or 0/1 in another dtype, and views
# in another memory order or with strides.
_MASKS = st.builds(
    lambda mask, dtype, view: view(mask.astype(dtype)),
    arrays(bool, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40)),
    st.sampled_from([bool, np.uint8, np.int64, np.float64]),
    st.sampled_from([lambda m: m, np.transpose, np.asfortranarray, lambda m: m[::-1, ::2]]),
)


@pytest.fixture
def image():
    rng = np.random.default_rng(0)
    return rng.random((7, 5)) * 10.0


class TestCsv:
    def test_round_trip_bit_exact(self, image, tmp_path):
        p = tmp_path / "img.csv"
        image_io.write_image_csv(image, p)
        back = image_io.read_image_csv(p)
        assert np.array_equal(back, image)

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            image_io.read_image_csv(p)

    def test_non_numeric_reported_with_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n3.0,x\n")
        with pytest.raises(ValueError, match="line 2"):
            image_io.read_image_csv(p)


    def test_undecodable_bytes_name_the_file(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"1.0,2.0\n3.0,\xb5\n")
        with pytest.raises(ValueError, match="latin1.csv: not UTF-8 text"):
            image_io.read_image_csv(p)


class TestRrm:
    def test_round_trip_bit_exact(self, image, tmp_path):
        p = tmp_path / "img.rrm"
        image_io.write_image_rrm(image, p)
        back = image_io.read_image_rrm(p)
        assert np.array_equal(back, image)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "img.rrm"
        image_io.write_image_rrm(np.array([[1.0, 2.0]]), p)
        blob = p.read_bytes()
        assert blob[:4] == b"RRM1"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 2
        assert len(blob) == 12 + 2 * 8

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.rrm"
        p.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            image_io.read_image_rrm(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "short.rrm"
        image_io.write_image_rrm(np.ones((3, 3)), p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(ValueError, match="truncated"):
            image_io.read_image_rrm(p)
        p.write_bytes(p.read_bytes() + bytes(12))
        with pytest.raises(ValueError, match=r"truncated RRM1 image \(92 bytes, expected 84\)"):
            image_io.read_image_rrm(p)


class TestDispatch:
    def test_by_extension(self, image, tmp_path):
        image_io.write_image_csv(image, tmp_path / "a.csv")
        image_io.write_image_rrm(image, tmp_path / "a.rrm")
        assert np.array_equal(image_io.read_image(tmp_path / "a.csv"), image)
        assert np.array_equal(image_io.read_image(tmp_path / "a.rrm"), image)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            image_io.read_image(tmp_path / "nope.rrm")

    # CRLF line ends and a blank line: the digest covers every byte, not the
    # parsed lines.
    @pytest.mark.parametrize("name", ["a.rrm", "a.csv", "crlf.csv"])
    def test_digest_is_sha256_of_the_file(self, name, image, tmp_path):
        p = tmp_path / name
        if name == "a.rrm":
            image_io.write_image_rrm(image, p)
        else:
            image_io.write_image_csv(image, p)
            if name == "crlf.csv":
                p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n") + b"\r\n")
        digest = hashlib.sha256()
        assert np.array_equal(image_io.read_image(p, digest=digest), image)
        assert digest.hexdigest() == hashlib.sha256(p.read_bytes()).hexdigest()


class TestPgm:
    def test_exact_bytes(self, tmp_path):
        mask = np.array([[True, False], [False, True], [True, True]])
        p = tmp_path / "m.pgm"
        image_io.write_mask_pgm(mask, p)
        assert p.read_bytes() == b"P5\n2 3\n255\n" + bytes([255, 0, 0, 255, 255, 255])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        mask = rng.random((9, 4)) < 0.5
        p = tmp_path / "m.pgm"
        image_io.write_mask_pgm(mask, p)
        assert np.array_equal(image_io.read_mask_pgm(p), mask)

    @pytest.mark.parametrize(
        "header",
        [
            b"P5\n# written by hand\n4 3\n# maxval next\n255\n",
            b"P5 4 3 255\n",
            b"P5\t4\r\n3#comment\n 255 ",
            b"P5#c1\n#c2\n4\n3\n255\n",
        ],
    )
    def test_header_tokens_and_comments(self, header, tmp_path):
        mask = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 1, 1]], dtype=bool)
        p = tmp_path / "m.pgm"
        image_io.write_mask_pgm(mask, p)
        payload = p.read_bytes()[len(b"P5\n4 3\n255\n"):]
        p.write_bytes(header + payload)
        assert np.array_equal(image_io.read_mask_pgm(p), mask)

    def test_truncated_payload_names_file(self, tmp_path):
        p = tmp_path / "short.pgm"
        image_io.write_mask_pgm(np.ones((3, 3), bool), p)
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(ValueError, match="short.pgm.*truncated"):
            image_io.read_mask_pgm(p)

    @pytest.mark.parametrize("blob", [b"P6\n2 2\n255\n" + bytes(12), b"P5\n2 2\n", b"P5 2 x 255\n"])
    def test_malformed_header_rejected(self, blob, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(blob)
        with pytest.raises(ValueError, match="bad.pgm"):
            image_io.read_mask_pgm(p)

    def test_mask_csv(self, tmp_path):
        mask = np.array([[True, False]])
        p = tmp_path / "m.csv"
        image_io.write_mask_csv(mask, p)
        assert p.read_text() == "1,0\n"

    @given(mask=_MASKS)
    @example(mask=np.ones((1, 1), bool))
    @example(mask=np.zeros((1, 1), bool))
    @example(mask=np.array([[True, False, True, True, False]]))
    @example(mask=np.array([[1], [0], [1]], np.uint8))
    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mask_csv_matches_reference_writer(self, mask, tmp_path):
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        image_io.write_mask_csv(mask, fast)
        detect_reference.write_mask_csv(mask, slow)
        assert fast.read_bytes() == slow.read_bytes()

    @given(mask=_MASKS)
    @example(mask=np.ones((1, 1), bool))
    @example(mask=np.array([[0, 1, 1]], np.int64))
    @example(mask=np.array([[True], [False], [True]]))
    @example(mask=(np.arange(12).reshape(3, 4) % 3 == 0).T)
    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mask_pgm_matches_reference_writer(self, mask, tmp_path):
        fast, slow = tmp_path / "fast.pgm", tmp_path / "slow.pgm"
        image_io.write_mask_pgm(mask, fast)
        detect_reference.write_mask_pgm(mask, slow)
        assert fast.read_bytes() == slow.read_bytes()


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
@pytest.mark.parametrize("write, message", [
    (image_io.write_image_csv, "expected a 2-D image"),
    (image_io.write_image_rrm, "expected a 2-D image"),
    (image_io.write_mask_pgm, "mask must be 2-D"),
    (image_io.write_mask_csv, "mask must be 2-D"),
], ids=["image-csv", "image-rrm", "mask-pgm", "mask-csv"])
def test_writers_refuse_other_than_two_dimensions(write, message, shape, tmp_path):
    with pytest.raises(ValueError, match=message):
        write(np.ones(shape), tmp_path / "out")
    assert not (tmp_path / "out").exists()
