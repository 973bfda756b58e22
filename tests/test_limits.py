import pytest

from quiddity import limits


def test_ceiling_precedence(monkeypatch):
    monkeypatch.delenv(limits.ENV_VAR, raising=False)
    assert limits.ceiling(12) == 12
    assert limits.ceiling(12, override=20) == 20
    monkeypatch.setenv(limits.ENV_VAR, "16")
    assert limits.ceiling(12) == 16
    assert limits.ceiling(12, override=9) == 9


def test_check_budget(monkeypatch):
    monkeypatch.delenv(limits.ENV_VAR, raising=False)
    limits.check_budget(12, 12, None, "search")
    with pytest.raises(limits.BudgetExceededError):
        limits.check_budget(13, 12, None, "search")
    monkeypatch.setenv(limits.ENV_VAR, "13")
    limits.check_budget(13, 12, None, "search")


def test_env_budget_never_lowers_a_default(monkeypatch):
    from quiddity import dissection, search

    monkeypatch.setenv(limits.ENV_VAR, "13")
    assert limits.ceiling(limits.DEFAULT_GENERATIVE_CEILING) == 14
    # both searches at n = 14 are within their default ceiling; only the
    # budget checks run, the searches themselves are stubbed out
    monkeypatch.setattr(search, "_closure", lambda problem, n: {})
    monkeypatch.setattr(dissection, "_face_lists", lambda n: iter(()))
    assert len(search.generative_enumerate("I", 14)) == 0
    assert list(dissection.iter_dissections(14)) == []
    # the searches without a budget argument reach past their ceilings
    # only through the variable
    with pytest.raises(limits.BudgetExceededError):
        search.count_table("II", 15)
    with pytest.raises(limits.BudgetExceededError):
        next(dissection.iter_dissections(15))
    monkeypatch.setenv(limits.ENV_VAR, "15")
    assert search.count_table("II", 15) == [(n, 0) for n in range(3, 16)]
    assert list(dissection.iter_dissections(15)) == []
