"""Unit tests for repro.encoding.mining (encodings from query logs)."""


from repro.encoding.heuristics import encoding_cost, random_encoding
from repro.encoding.mining import (
    encoding_from_history,
    extract_subdomains,
    mine_workload,
)
from repro.query.predicates import Equals, InList, Range

DOMAIN = list(range(16))


class TestExtractSubdomains:
    def test_in_list(self):
        found = extract_subdomains(InList("v", [3, 1, 2]), "v", DOMAIN)
        assert found == [(1, 2, 3)]

    def test_range_rewritten_to_values(self):
        found = extract_subdomains(Range("v", 4, 7), "v", DOMAIN)
        assert found == [(4, 5, 6, 7)]

    def test_equals(self):
        assert extract_subdomains(Equals("v", 9), "v", DOMAIN) == [(9,)]

    def test_other_columns_ignored(self):
        assert extract_subdomains(Equals("w", 9), "v", DOMAIN) == []

    def test_composite_predicates_descend(self):
        predicate = (InList("v", [1, 2]) & Equals("w", 0)) | Range(
            "v", 10, 12
        )
        found = extract_subdomains(predicate, "v", DOMAIN)
        assert (1, 2) in found
        assert (10, 11, 12) in found

    def test_out_of_domain_values_dropped(self):
        found = extract_subdomains(
            InList("v", [1, 99]), "v", DOMAIN
        )
        assert found == [(1,)]

    def test_negation_descends(self):
        found = extract_subdomains(~InList("v", [1, 2]), "v", DOMAIN)
        assert found == [(1, 2)]


class TestMineWorkload:
    def _history(self):
        hot = InList("v", [0, 1, 2, 3])
        warm = Range("v", 8, 11)
        rare = InList("v", [5, 13])
        return [hot] * 10 + [warm] * 4 + [rare] * 1 + [
            Equals("v", 6)
        ] * 7

    def test_frequencies_counted(self):
        mined = mine_workload(self._history(), "v", DOMAIN,
                              min_support=1)
        weights = dict(zip(mined.subdomains, mined.weights))
        assert weights[(0, 1, 2, 3)] == 10
        assert weights[(8, 9, 10, 11)] == 4

    def test_min_support_prunes(self):
        mined = mine_workload(self._history(), "v", DOMAIN,
                              min_support=2)
        assert (5, 13) not in mined.subdomains

    def test_singletons_excluded(self):
        mined = mine_workload(self._history(), "v", DOMAIN,
                              min_support=1)
        assert all(len(s) >= 2 for s in mined.subdomains)

    def test_max_subdomains_cap(self):
        history = [
            InList("v", [i, i + 1]) for i in range(14)
        ] * 3
        mined = mine_workload(history, "v", DOMAIN, min_support=1,
                              max_subdomains=5)
        assert len(mined.subdomains) <= 5

    def test_total_observations(self):
        mined = mine_workload(self._history(), "v", DOMAIN,
                              min_support=1)
        assert mined.total_observations() == 15  # 10 + 4 + 1


class TestEncodingFromHistory:
    def test_beats_random_on_the_logged_workload(self):
        history = [InList("v", [0, 1, 2, 3])] * 10 + [
            InList("v", [4, 5, 6, 7])
        ] * 10
        mapping = encoding_from_history(
            history, "v", DOMAIN, min_support=2,
            reserve_void_zero=False, seed=0,
        )
        baseline = random_encoding(DOMAIN, seed=321,
                                   reserve_void_zero=False)
        predicates = [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert encoding_cost(mapping, predicates) <= encoding_cost(
            baseline, predicates
        )

    def test_hot_subdomain_reduces_to_one_vector(self):
        history = [InList("v", [0, 1, 2, 3, 4, 5, 6, 7])] * 20
        mapping = encoding_from_history(
            history, "v", DOMAIN, min_support=2,
            reserve_void_zero=False, seed=0,
        )
        assert encoding_cost(mapping, [list(range(8))]) == 1.0

    def test_empty_history_still_valid(self):
        mapping = encoding_from_history(
            [], "v", DOMAIN, reserve_void_zero=False
        )
        codes = [mapping.encode(v) for v in DOMAIN]
        assert len(set(codes)) == len(DOMAIN)
