import pytest

from cudfsolve import generate_instance, parse_document, render_document


def test_same_seed_same_document():
    assert generate_instance(42) == generate_instance(42)
    assert render_document(generate_instance(42)) == render_document(generate_instance(42))


def test_different_seeds_differ():
    assert generate_instance(1) != generate_instance(2)


@pytest.mark.parametrize("count", [1, 2, 7, 20, 133])
def test_exact_stanza_count(count):
    for seed in (0, 5, 9):
        doc = generate_instance(seed, packages=count)
        assert len(doc.packages) == count


def test_version_spread_respects_the_cap():
    doc = generate_instance(3, packages=60, max_versions=4)
    assert all(1 <= p.version <= 4 for p in doc.packages)
    flat = generate_instance(3, packages=10, max_versions=1)
    assert all(p.version == 1 for p in flat.packages)
    names = {p.name for p in flat.packages}
    assert len(names) == 10  # one version each, so ten distinct names


def test_installed_fraction_extremes():
    nobody = generate_instance(4, packages=40, installed_fraction=0.0)
    assert nobody.installed_ids() == frozenset()
    everyone = generate_instance(4, packages=40, installed_fraction=1.0)
    installed_names = {p.name for p in everyone.packages if p.installed}
    assert installed_names == {p.name for p in everyone.packages}


def test_at_most_two_installed_versions_per_name():
    doc = generate_instance(6, packages=120, installed_fraction=0.9)
    per_name = {}
    for p in doc.packages:
        if p.installed:
            per_name[p.name] = per_name.get(p.name, 0) + 1
    assert per_name and max(per_name.values()) <= 2


def test_densities_can_be_switched_off():
    doc = generate_instance(
        11,
        packages=30,
        depends_density=0.0,
        conflicts_density=0.0,
        provides_density=0.0,
        recommends_density=0.0,
    )
    for p in doc.packages:
        assert not p.depends and not p.conflicts
        assert not p.provides and not p.recommends


def test_request_knobs():
    doc = generate_instance(
        12,
        packages=40,
        installed_fraction=0.5,
        install_requests=3,
        upgrade_requests=2,
        remove_requests=1,
    )
    assert len(doc.request.install.clauses) == 3
    assert len(doc.request.upgrade.clauses) == 2
    assert len(doc.request.remove.clauses) == 1
    # one name per clause, no repeats within a request
    requested = [c.atoms[0].name for c in doc.request.install.clauses]
    assert len(set(requested)) == 3
    # upgrades and removals target installed names, so they can be served
    installed_names = {p.name for p in doc.packages if p.installed}
    for clause in doc.request.upgrade.clauses + doc.request.remove.clauses:
        assert clause.atoms[0].name in installed_names


def test_rejects_empty_universe():
    with pytest.raises(ValueError):
        generate_instance(0, packages=0)


def test_generated_documents_round_trip():
    for seed in range(20):
        doc = generate_instance(seed, packages=25, installed_fraction=0.4)
        assert parse_document(render_document(doc)) == doc


def test_virtual_names_exist_only_through_provides():
    doc = generate_instance(13, packages=80, provides_density=0.6)
    real = {p.name for p in doc.packages}
    assert not any(name.startswith("virt") for name in real)
    provided = {
        clause.atoms[0].name for p in doc.packages for clause in p.provides.clauses
    }
    assert any(name.startswith("virt") for name in provided)
