from fractions import Fraction

from tensorlattice.rng import SplitStream


def test_same_seed_same_stream():
    a = SplitStream(42)
    b = SplitStream(42)
    assert [a.next_word() for _ in range(8)] == [b.next_word() for _ in range(8)]


def test_different_seeds_differ():
    a = SplitStream(1)
    b = SplitStream(2)
    assert [a.next_word() for _ in range(4)] != [b.next_word() for _ in range(4)]


def test_split_by_label_is_stable():
    def head(stream):
        return [stream.next_word() for _ in range(4)]

    assert head(SplitStream(7).split("laws", 3)) == head(SplitStream(7).split("laws", 3))
    assert head(SplitStream(7).split("laws", 3)) != head(SplitStream(7).split("laws", 4))
    assert head(SplitStream(7).split("laws")) != head(SplitStream(7).split("gauge"))


def test_split_does_not_disturb_parent():
    a = SplitStream(5)
    b = SplitStream(5)
    a.split("child")
    # deriving a child stream must not advance the parent
    assert a.next_word() == b.next_word()


def test_children_are_independent_of_sibling_consumption():
    parent = SplitStream(9)
    c1 = parent.split(0)
    burned = [c1.next_word() for _ in range(100)]
    assert len(set(burned)) > 90
    c2 = parent.split(1)
    fresh = SplitStream(9).split(1)
    assert [c2.next_word() for _ in range(8)] == [fresh.next_word() for _ in range(8)]


def test_randint_bounds_and_spread():
    r = SplitStream(11)
    draws = [r.randint(3, 9) for _ in range(500)]
    assert all(3 <= d <= 9 for d in draws)
    assert set(draws) == set(range(3, 10))


def test_fraction_bounds_and_denominator():
    r = SplitStream(13)
    for _ in range(300):
        f = r.fraction(-2, 3, 8)
        assert Fraction(-2) <= f <= Fraction(3)
        # the draw picks a grid density up to the requested cap
        assert f.denominator <= 8


def test_sign_and_choice():
    r = SplitStream(17)
    signs = {r.sign() for _ in range(50)}
    assert signs == {-1, 1}
    picks = {r.choice("abc") for _ in range(60)}
    assert picks == {"a", "b", "c"}


def test_convex_weights_sum_exactly():
    r = SplitStream(19)
    for count in (1, 2, 5):
        w = r.convex_weights(count)
        assert sum(w) == 1
        assert all(x >= 0 for x in w)


def test_balanced_weights_bounded_total():
    r = SplitStream(23)
    for _ in range(20):
        w = r.balanced_weights(4)
        assert sum(abs(x) for x in w) <= 1


def test_index_keyed_split_matches_any_iteration_order():
    # the worker-sharding contract: stream for item i depends only on i
    base = SplitStream(42).split("suite")
    forward = [base.split(i).next_word() for i in range(10)]
    backward = [base.split(i).next_word() for i in reversed(range(10))]
    assert forward == list(reversed(backward))
