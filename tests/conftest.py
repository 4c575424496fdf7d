import pytest
import yaml

from roughmetric import EpSequence, build_space, paper_example_spec


@pytest.fixture(scope="session")
def paper4():
    return build_space(paper_example_spec(4))


@pytest.fixture(scope="session")
def paper6():
    return build_space(paper_example_spec(6))


@pytest.fixture(scope="session")
def paper10():
    return build_space(paper_example_spec(10))


@pytest.fixture(scope="session")
def xi():
    """The alternating 2,3,2,3,... sequence."""
    return EpSequence(cycle=(2, 3))


@pytest.fixture(params=["libyaml", "pure"])
def yaml_parser(request, monkeypatch):
    """Each parser path of ``load_space``: libyaml, and the pure-Python parser."""
    if request.param == "pure":
        monkeypatch.setattr(yaml, "CSafeLoader", None)
    elif getattr(yaml, "CSafeLoader", None) is None:
        pytest.skip("this PyYAML is built without libyaml")
    return request.param
