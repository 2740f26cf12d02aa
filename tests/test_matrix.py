"""Tests for subsequence enumeration and the §5.1 containment matrix,
including a reconstruction of the paper's Figure 3/4 example."""

from repro.asm import assemble
from repro.extinst.analysis import ProgramAnalysis
from repro.extinst.extraction import (
    ExtractionParams,
    extract_candidate_sequences,
)
from repro.extinst.matrix import (
    build_containment_matrix,
    disjoint_count,
    enumerate_subsequences,
)
from repro.profiling import profile_program
from repro.program.dfg import build_all_dfgs
from repro.program.liveness import compute_liveness

# The paper's Figure 3: inside one loop, one maximal sequence
# sll/addu/sll and two maximal sequences sll/addu (identical config).
FIG3 = """
.text
main:
    li $s0, 100
    li $t1, 3
loop:
    sll $t2, $t1, 4
    addu $t2, $t2, $t1
    sll $t2, $t2, 2
    sw $t2, 0($sp)
    sll $t3, $t1, 4
    addu $t3, $t3, $t1
    sw $t3, 4($sp)
    sll $t4, $t1, 4
    addu $t4, $t4, $t1
    sw $t4, 8($sp)
    addiu $s0, $s0, -1
    bgtz $s0, loop
    halt
"""


def fig3_setup():
    program = assemble(FIG3)
    profile = profile_program(program)
    params = ExtractionParams()
    seqs = extract_candidate_sequences(profile, params)
    cfg = profile.cfg
    dfgs = build_all_dfgs(cfg, compute_liveness(cfg))
    return program, params, seqs, dfgs


def loop_matrix():
    """The containment matrix of FIG3's loop, and the loop's sequences."""
    analysis = ProgramAnalysis(profile_program(assemble(FIG3)))
    loop_seqs = [s for s in analysis.sequences if s.loop_header is not None]
    subs = [analysis.subsequences(s) for s in loop_seqs]
    return build_containment_matrix(loop_seqs, subs), loop_seqs


class TestFigure3Extraction:
    def test_two_distinct_configs(self):
        _, _, seqs, _ = fig3_setup()
        keys = {s.key for s in seqs if len(s.nodes) >= 2}
        # I (sll/addu/sll) and J (sll/addu) — J's two occurrences share one
        assert len(keys) >= 2
        lengths = sorted(len(s.nodes) for s in seqs)
        assert 3 in lengths and lengths.count(2) >= 2

    def test_identical_sequences_share_config(self):
        _, _, seqs, _ = fig3_setup()
        two_op = [s for s in seqs if len(s.nodes) == 2]
        assert len(two_op) == 2
        assert two_op[0].key == two_op[1].key


class TestSubsequenceEnumeration:
    def test_includes_full_sequence(self):
        program, params, seqs, dfgs = fig3_setup()
        big = max(seqs, key=lambda s: len(s.nodes))
        subs = enumerate_subsequences(program, dfgs[big.bid], big, params)
        assert big.key in subs

    def test_j_pattern_found_inside_i(self):
        """The matrix's key leverage: sequence J (sll/addu) appears as a
        subsequence of maximal sequence I (sll/addu/sll)."""
        program, params, seqs, dfgs = fig3_setup()
        big = max(seqs, key=lambda s: len(s.nodes))
        small = next(s for s in seqs if len(s.nodes) == 2)
        subs = enumerate_subsequences(program, dfgs[big.bid], big, params)
        assert small.key in subs

    def test_all_subsequences_valid_extinsts(self):
        program, params, seqs, dfgs = fig3_setup()
        big = max(seqs, key=lambda s: len(s.nodes))
        subs = enumerate_subsequences(program, dfgs[big.bid], big, params)
        for occs in subs.values():
            for occ in occs:
                assert occ.build.extdef.depth >= 1
                assert len(occ.build.input_regs) <= 2


class TestDisjointCount:
    def test_counts_non_overlapping(self):
        program, params, seqs, dfgs = fig3_setup()
        big = max(seqs, key=lambda s: len(s.nodes))
        subs = enumerate_subsequences(program, dfgs[big.bid], big, params)
        for key, occs in subs.items():
            assert 1 <= disjoint_count(occs) <= len(occs)


class TestContainmentMatrix:
    def test_figure4_shape(self):
        """Reproduce Figure 4: [J,I] entry nonzero (J inside I), and the
        diagonal counts maximal appearances."""
        matrix, loop_seqs = loop_matrix()

        big = max(loop_seqs, key=lambda s: len(s.nodes))
        small = next(s for s in loop_seqs if len(s.nodes) == 2)
        i_col = [s.key for s in [big]][0]
        # column order: distinct maximal keys in occurrence order
        maximal_keys = []
        for s in loop_seqs:
            if s.key not in maximal_keys:
                maximal_keys.append(s.key)
        col_of = {k: i for i, k in enumerate(maximal_keys)}

        j_row = matrix.counts[matrix.keys.index(small.key)]
        # J appears once inside each occurrence of I, and twice maximally
        assert j_row[col_of[big.key]] > 0
        assert j_row[col_of[small.key]] > 0

    def test_scores_weight_gain_and_frequency(self):
        matrix, loop_seqs = loop_matrix()
        small = next(s for s in loop_seqs if len(s.nodes) == 2)
        big = max(loop_seqs, key=lambda s: len(s.nodes))
        # paper example: J appears 3x with gain 1 (score 3/occurrence set);
        # I appears once with gain 2 — with one PFU, J wins
        assert matrix.score(small.key) > matrix.score(big.key)

    def test_ranked_keys_sorted(self):
        matrix, loop_seqs = loop_matrix()
        ranked = matrix.ranked_keys()
        scores = [matrix.score(k) for k in ranked]
        assert scores == sorted(scores, reverse=True)
