"""Per-dimension scorers and the coefficient-weighted structural sum."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segscore import (
    DEFAULT_VMWT,
    DimensionCoefficients,
    DimensionScores,
    Segment,
    Vmwt,
    structural_score,
    token_fingerprint,
)
from segscore.scoring import (
    DIMENSIONS,
    score_freshness,
    score_images,
    score_links,
    score_profile,
    score_theme,
    score_visual,
)

from conftest import DATA_DIR, FUSED_TERMS, PROFILE_TERMS


def make_segment(tokens=(), links=(), images=(), spans=(), sid=0) -> Segment:
    toks = list(tokens)
    return Segment(
        id=sid,
        dom_path=(1, sid),
        text=" ".join(toks),
        tokens=toks,
        links=[(list(a), list(h)) for a, h in links],
        images=[(list(a), list(t), list(s)) for a, t, s in images],
        visual_spans=[(tag, list(ts)) for tag, ts in spans],
        fingerprint=token_fingerprint(toks),
    )


class TestLinkScore:
    def test_anchor_and_href_mass_sum(self):
        seg = make_segment(links=[(["search", "here"], ["web", "search", "q", "web"])])
        assert score_links(seg, FUSED_TERMS) == pytest.approx(4.0)

    def test_links_sum_independently(self):
        seg = make_segment(links=[(["web"], []), ([], ["search"])])
        assert score_links(seg, FUSED_TERMS) == pytest.approx(2.0)

    def test_no_links_scores_zero(self):
        assert score_links(make_segment(tokens=["web"]), FUSED_TERMS) == 0.0


class TestImageScore:
    def test_alt_title_and_filename_mass_sum(self):
        seg = make_segment(images=[(["web", "chart"], ["chart"], ["web", "web", "png"])])
        assert score_images(seg, FUSED_TERMS) == pytest.approx(3.0)

    def test_no_images_scores_zero(self):
        assert score_images(make_segment(tokens=["web"]), FUSED_TERMS) == 0.0


class TestThemeScore:
    def test_counts_distinct_shared_title_terms(self):
        seg = make_segment(tokens=["web", "web", "data", "rankings"])
        assert score_theme(seg, ["web", "rankings", "web"]) == pytest.approx(2.0)

    def test_empty_title_scores_zero(self):
        assert score_theme(make_segment(tokens=["web"]), []) == 0.0

    def test_disjoint_title_scores_zero(self):
        assert score_theme(make_segment(tokens=["data"]), ["web"]) == 0.0


class TestVisualScore:
    def test_tag_weights_multiply_span_mass(self):
        seg = make_segment(spans=[("h2", ["semantic", "ranking"]),
                                  ("strong", ["web"]),
                                  ("marquee", ["web"])])
        # 2.5 * 1.3 + 1.5 * 1.0 + 0.0 (unknown tag)
        assert score_visual(seg, FUSED_TERMS, Vmwt()) == pytest.approx(4.75)

    def test_custom_table_changes_weights(self):
        seg = make_segment(spans=[("h2", ["web"])])
        vmwt = Vmwt.from_file(DATA_DIR / "vmwt.json")
        assert vmwt.weight("h2") == 2.0
        assert score_visual(seg, FUSED_TERMS, vmwt) == pytest.approx(2.0)


class TestFreshnessScore:
    def test_no_snapshot_scores_zero(self):
        seg = make_segment(tokens=["web", "python"])
        assert score_freshness(seg, None, FUSED_TERMS) == 0.0

    def test_unchanged_tokens_score_zero(self):
        seg = make_segment(tokens=["web", "python"])
        assert score_freshness(seg, ["web", "python"], FUSED_TERMS) == 0.0

    def test_empty_prior_counts_everything_as_fresh(self):
        seg = make_segment(tokens=["web", "web", "python"])
        assert score_freshness(seg, [], FUSED_TERMS) == pytest.approx(2.3)

    def test_added_occurrence_of_existing_term_counts(self):
        seg = make_segment(tokens=["web", "web"])
        assert score_freshness(seg, ["web"], FUSED_TERMS) == pytest.approx(1.0)

    def test_removed_tokens_never_count(self):
        seg = make_segment(tokens=["data"])
        assert score_freshness(seg, ["web", "search", "data"], FUSED_TERMS) == 0.0

    def test_equal_lists_score_zero_and_reorders_still_diff_as_multisets(self):
        seg = make_segment(tokens=["web", "python", "web"])
        assert score_freshness(seg, ["web", "python", "web"], FUSED_TERMS) == 0.0
        assert score_freshness(seg, ("web", "python", "web"), FUSED_TERMS) == 0.0
        assert score_freshness(seg, ["python", "web", "web"], FUSED_TERMS) == 0.0
        assert score_freshness(seg, ["python", "web"], FUSED_TERMS) == pytest.approx(1.0)
        assert score_freshness(seg, ["web", "python"], FUSED_TERMS) == pytest.approx(1.0)

    @given(st.lists(st.sampled_from(["web", "search", "python", "data"]), max_size=6),
           st.sampled_from(["same", "shuffled", "drawn"]),
           st.lists(st.sampled_from(["web", "search", "python", "data"]), max_size=6),
           st.randoms(use_true_random=False))
    def test_freshness_is_the_multiset_difference(self, tokens, how, drawn, rng):
        prior = {"same": list(tokens), "shuffled": rng.sample(tokens, len(tokens)),
                 "drawn": drawn}[how]
        fresh = Counter(tokens) - Counter(prior)
        expected = sum(FUSED_TERMS.get(tok, 0.0) * n for tok, n in fresh.items())
        assert score_freshness(make_segment(tokens=tokens), prior, FUSED_TERMS) == expected


class TestProfileScore:
    def test_profile_mass_ignores_query_only_terms(self):
        seg = make_segment(tokens=["semantic", "semantic", "python", "web"])
        assert score_profile(seg, PROFILE_TERMS) == pytest.approx(1.9)


class TestStructuralScore:
    def build(self):
        return make_segment(
            tokens=["web", "semantic", "data"],
            links=[(["web"], [])],
            images=[(["search"], [], [])],
            spans=[("strong", ["web"])],
        )

    def args(self, coeffs=DimensionCoefficients()):
        return dict(fused=FUSED_TERMS, profile_terms=PROFILE_TERMS,
                    title_tokens=["web"], vmwt=Vmwt(), prior_tokens=[],
                    coeffs=coeffs)

    def test_delta_is_the_plain_sum_at_unit_coefficients(self):
        dims, delta = structural_score(self.build(), **self.args())
        assert dims.link == pytest.approx(1.0)
        assert dims.image == pytest.approx(1.0)
        assert dims.theme == pytest.approx(1.0)
        assert dims.visual == pytest.approx(1.5)
        assert dims.freshness == pytest.approx(1.8)  # fully fresh vs empty prior
        assert dims.profile == pytest.approx(0.8)
        assert delta == pytest.approx(1.0 + 1.0 + 1.0 + 1.5 + 1.8 + 0.8)

    def test_doubling_one_coefficient_adds_that_dimension_once(self):
        seg = self.build()
        dims, base = structural_score(seg, **self.args())
        _, boosted = structural_score(
            seg, **self.args(DimensionCoefficients(link=2.0)))
        assert boosted == pytest.approx(base + dims.link)

    def test_delta_is_the_written_out_left_to_right_sum(self):
        coeffs = DimensionCoefficients(link=0.1, image=0.7, theme=1.3,
                                       visual=0.3, freshness=2.9, profile=0.6)
        dims, delta = structural_score(self.build(), **self.args(coeffs))
        assert delta == (0.1 * dims.link + 0.7 * dims.image + 1.3 * dims.theme
                         + 0.3 * dims.visual + 2.9 * dims.freshness + 0.6 * dims.profile)

    def test_negative_zero_delta_keeps_its_sign(self):
        # validation accepts -0.0; a sum started from 0.0 would lose the sign
        zeros = DimensionCoefficients(link=-0.0, image=-0.0, theme=-0.0,
                                      visual=-0.0, freshness=-0.0, profile=-0.0)
        _, delta = structural_score(self.build(), **self.args(zeros))
        assert math.copysign(1.0, delta) == -1.0

    def test_zero_coefficients_zero_the_sum_not_the_dimensions(self):
        zeros = DimensionCoefficients(link=0, image=0, theme=0,
                                      visual=0, freshness=0, profile=0)
        dims, delta = structural_score(self.build(), **self.args(zeros))
        assert delta == 0.0
        assert dims.link > 0.0


class TestTables:
    def test_dimension_names_are_fixed(self):
        assert set(DimensionScores(0, 0, 0, 0, 0, 0).as_dict()) == set(DIMENSIONS)

    def test_dimension_names_are_both_dataclasses_fields_in_order(self):
        assert tuple(f.name for f in fields(DimensionScores)) == DIMENSIONS
        assert tuple(f.name for f in fields(DimensionCoefficients)) == DIMENSIONS
        assert tuple(DimensionScores(1, 2, 3, 4, 5, 6).as_dict().items()) == tuple(
            zip(DIMENSIONS, (1, 2, 3, 4, 5, 6)))

    def test_default_weight_table_values(self):
        vmwt = Vmwt()
        assert vmwt.weight("h1") == 3.0
        assert vmwt.weight("em") == 1.2
        assert vmwt.weight("p") == 0.0
        assert dict(DEFAULT_VMWT)["u"] == 1.1

    def test_negative_vmwt_weight_rejected(self):
        with pytest.raises(ValueError):
            Vmwt({"h1": -1.0})

    def test_vmwt_from_file(self):
        vmwt = Vmwt.from_file(DATA_DIR / "vmwt.json")
        assert vmwt.tag_weights == {"h1": 4.0, "h2": 2.0, "strong": 2.0}
        assert vmwt.weight("em") == 0.0

    def test_coefficients_from_file_keep_defaults_for_absent_names(self):
        coeffs = DimensionCoefficients.from_file(DATA_DIR / "coeffs.json")
        assert coeffs.link == 2.0
        assert coeffs.image == 0.5
        assert coeffs.theme == 1.0
        assert coeffs.freshness == 1.0

    def test_unknown_coefficient_name_rejected(self, tmp_path):
        bad = tmp_path / "coeffs.json"
        bad.write_text('{"sparkle": 1.0}', "utf-8")
        with pytest.raises(ValueError):
            DimensionCoefficients.from_file(bad)

    @pytest.mark.parametrize("loader, name", [
        pytest.param(Vmwt.from_file, "h1", id="vmwt"),
        pytest.param(DimensionCoefficients.from_file, "link", id="coeffs"),
    ])
    @pytest.mark.parametrize("value", [
        "NaN", "Infinity", "1e999", '"2"', "[1]", "true", "null",
        pytest.param("1" + "0" * 400, id="past_float"),
    ])
    def test_weight_file_rejects_non_finite_and_non_numeric(self, tmp_path, loader, name,
                                                            value):
        path = tmp_path / "weights.json"
        path.write_text(f'{{"{name}": {value}}}', "utf-8")
        with pytest.raises(ValueError, match="finite number"):
            loader(path)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            DimensionCoefficients(theme=-0.5)


fused_strategy = st.dictionaries(
    st.sampled_from(["web", "search", "semantic", "ranking", "python"]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    min_size=1, max_size=5,
)
token_strategy = st.lists(
    st.sampled_from(["web", "search", "data", "page", "note"]), max_size=12)


class TestMonotonicity:
    """Adding a fused-matching token never lowers the dimension that sees it."""

    @given(token_strategy, fused_strategy)
    def test_profile_mass_grows_with_matching_tokens(self, tokens, fused):
        before = score_profile(make_segment(tokens=tokens), fused)
        term = sorted(fused)[0]
        after = score_profile(make_segment(tokens=tokens + [term]), fused)
        assert after >= before

    @given(token_strategy, fused_strategy)
    def test_link_mass_grows_with_matching_anchor_tokens(self, tokens, fused):
        term = sorted(fused)[0]
        before = score_links(make_segment(links=[(tokens, [])]), fused)
        after = score_links(make_segment(links=[(tokens + [term], [])]), fused)
        assert after >= before

    @given(token_strategy, fused_strategy)
    def test_freshness_grows_with_matching_new_tokens(self, tokens, fused):
        term = sorted(fused)[0]
        prior = ["data", "page"]
        before = score_freshness(make_segment(tokens=tokens), prior, fused)
        after = score_freshness(make_segment(tokens=tokens + [term]), prior, fused)
        assert after >= before
