import pytest

from score_lab import InvalidInputError, Progression


@pytest.mark.parametrize(
    "s,d,p,message",
    [
        (4, 2, 2, "s=4 and d=2 must be coprime"),
        (0, 1, 2, "s and d must be positive integers, got 0, 1"),
        (3, 2, 0, "p must be an integer >= 1, got 0"),
        (3, 2, "2", "p must be an integer >= 1, got '2'"),
    ],
)
def test_construction_refuses_bad_parameters(s, d, p, message):
    for build in (Progression, lambda s, d, p: Progression(3, 2, 1)._replace(s=s, d=d, p=p)):
        with pytest.raises(InvalidInputError) as excinfo:
            build(s, d, p)
        assert str(excinfo.value) == message


def test_a_plain_pair_is_a_progression():
    prog = Progression(3, 2, 1)
    assert prog.moduli == (3, 5)
    assert prog.columns == 3
    with pytest.raises(InvalidInputError, match="progression length p must be >= 2, got 1"):
        prog.constraints  # the path encoding needs p >= 2


def test_grid_values():
    assert Progression(21, 4, 4).a == -21
    assert Progression(23, 3, 3).a == -23
    assert Progression(22, 3, 3).a == -25
    assert Progression(21, 4, 4).columns == 13
    assert Progression(22, 3, 3).max_column == 12
    assert Progression(21, 4, 1).period == 50
    assert Progression(21, 4, 1).boundary_rows[0] == 1
    assert Progression(21, 4, 1).boundary_rows[12] == -1


def test_path_type_and_moduli():
    prog = Progression(21, 4, 4)
    assert (prog.x, prog.y) == (12, -2)
    assert Progression(23, 3, 3).x == 13
    assert Progression(22, 3, 3).moduli == (22, 25, 28, 31)
    assert Progression(22, 3, 3).doubled == (44, 50, 56, 62)


def test_equal_parameters_make_equal_progressions():
    assert Progression(3, 2, 2) == Progression(3, 2, 2)
    assert Progression(3, 2, 2) != Progression(3, 2, 3)
    assert len({Progression(3, 2, 2), Progression(3, 2, 2)}) == 1
    with pytest.raises(AttributeError):
        Progression(3, 2, 2).p = 3
    prog = Progression(3, 2, 4)
    for name in ("x", "class_blocks"):  # read first, so each is cached
        getattr(prog, name)
        with pytest.raises(AttributeError):
            setattr(prog, name, None)
    constraints = prog.constraints
    assert constraints.pattern.search("FUU")
    with pytest.raises(AttributeError):
        constraints.pattern = None
    assert prog.x == 2 and constraints.pattern.search("FUU")
