import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from slotnav import navsim
from slotnav.navsim import (FIELD_CACHE_SIZE, FovParams, EpisodeResult, GridWorld,
                            MemoryEntry, Pose, WorldObject,
                            episode_to_json, execute_episode, in_fov, load_world,
                            parse_world, plan_path, save_episode_log, success_rate)
from slotnav.promptgen import normalize_angle
from slotnav.retrieval import build_index, topk_images

from _oracles import breadth_first_path, format_world, save_world


def corridor_world(length=8, cell_m=0.25, objects=()):
    grid = np.zeros((1, length), dtype=bool)
    return GridWorld(grid=grid, cell_m=cell_m, objects=tuple(objects))


def center_pose(world, cell, theta=0.0):
    x, y = world.cell_center(cell)
    return Pose(x=x, y=y, theta=theta)


def unit_rows(n):
    return np.eye(n, dtype=np.float64)


# ----------------------------------------------------------------------
# Pose and angles

def test_normalize_angle_range():
    assert normalize_angle(3.0 * math.pi / 2.0) == pytest.approx(-math.pi / 2.0)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(0.0) == 0.0


def test_pose_normalizes_theta():
    assert Pose(x=0.0, y=0.0, theta=2.0 * math.pi + 0.25).theta == pytest.approx(0.25)


# ----------------------------------------------------------------------
# Memory entries

def test_memory_entry_requires_unit_embedding():
    pose = Pose(x=0.0, y=0.0, theta=0.0)
    MemoryEntry(image_id="a", pose=pose, embedding=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        MemoryEntry(image_id="b", pose=pose, embedding=np.array([1.0, 1.0]))


# ----------------------------------------------------------------------
# World construction and file format

def test_world_requires_rectangular_grid():
    with pytest.raises(ValueError):
        parse_world("..#\n....\n")


def test_world_rejects_bad_characters():
    with pytest.raises(ValueError, match="line 1"):
        parse_world("..x.\n")


def test_world_rejects_duplicate_object_ids():
    grid = np.zeros((2, 2), dtype=bool)
    objs = (WorldObject("o1", "sofa", (0, 0)), WorldObject("o1", "lamp", (1, 1)))
    with pytest.raises(ValueError):
        GridWorld(grid=grid, cell_m=0.25, objects=objs)


def test_world_rejects_out_of_bounds_object():
    with pytest.raises(ValueError):
        GridWorld(grid=np.zeros((2, 2), dtype=bool), cell_m=0.25,
                  objects=(WorldObject("o1", "sofa", (5, 0)),))


def test_object_on_wall_needs_free_neighbor():
    # A 1x3 strip of wall: the middle wall cell has no free neighbor.
    grid = np.array([[True, True, True]])
    with pytest.raises(ValueError):
        GridWorld(grid=grid, cell_m=0.25,
                  objects=(WorldObject("o1", "sofa", (1, 0)),))
    # Wall cell adjacent to free space is a valid anchor (furniture).
    grid2 = np.array([[False, True]])
    world = GridWorld(grid=grid2, cell_m=0.25,
                      objects=(WorldObject("o1", "sofa", (1, 0)),))
    assert world.objects[0].noun == "sofa"


def test_world_rejects_bad_cell_size():
    for bad in (0.0, -0.25, math.nan, math.inf):
        with pytest.raises(ValueError, match="cell size"):
            GridWorld(grid=np.zeros((1, 1), dtype=bool), cell_m=bad)


def test_grid_is_immutable():
    world = corridor_world()
    with pytest.raises(ValueError):
        world.grid[0, 0] = True


def test_cell_round_trip():
    world = corridor_world(cell_m=0.25)
    for cell in [(0, 0), (3, 0), (7, 0)]:
        assert world.cell_of(*world.cell_center(cell)) == cell


def test_world_file_round_trip(tmp_path):
    text = "....#\n..#..\n.....\n\no1 sofa 4 1\no2 lamp 0 2\n"
    world = parse_world(text)
    assert world.rows == 3 and world.cols == 5
    assert world.occupied((4, 0)) and not world.occupied((0, 0))
    assert [o.object_id for o in world.objects] == ["o1", "o2"]
    path = str(tmp_path / "world.txt")
    save_world(world, path)
    back = load_world(path)
    assert np.array_equal(back.grid, world.grid)
    assert back.objects == world.objects
    assert format_world(back) == text


def test_world_file_malformed_object_line():
    with pytest.raises(ValueError, match="line 3"):
        parse_world("..\n\no1 sofa 0\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_world("..\n\no1 sofa x y\n")


def test_world_cell_size_flag():
    world = parse_world("..\n", cell_m=0.5)
    assert world.cell_center((1, 0)) == (0.75, 0.25)


# ----------------------------------------------------------------------
# Planning

def bfs_steps(grid, start_cell, goal_cell):
    path = breadth_first_path(grid, start_cell, goal_cell)
    return len(path) - 1 if path else -1


def whole_field(world, goal):
    """steps_between every cell and goal as a rows×cols array, -1 where
    unreachable.  The first call starts goal's field, so every later one
    reads it and grows it only as far as that cell."""
    world.steps_between(goal, goal)
    return np.array([[world.steps_between((col, row), goal) for col in range(world.cols)]
                     for row in range(world.rows)])


def test_plan_path_straight_corridor():
    world = corridor_world(length=8)
    assert plan_path(world, center_pose(world, (0, 0)), center_pose(world, (5, 0))) == 5


def test_plan_path_same_cell():
    world = corridor_world()
    assert plan_path(world, center_pose(world, (2, 0)), center_pose(world, (2, 0))) == 0


def test_plan_path_walled_off_goal():
    text = ".....\n.###.\n.#.#.\n.###.\n.....\n"
    world = parse_world(text)
    assert plan_path(world, center_pose(world, (0, 0)), center_pose(world, (2, 2))) == -1


def test_plan_path_rejects_occupied_endpoints():
    world = parse_world("..#.\n")
    free = center_pose(world, (0, 0))
    wall = center_pose(world, (2, 0))
    with pytest.raises(ValueError, match="goal"):
        plan_path(world, free, wall)
    with pytest.raises(ValueError, match="start"):
        plan_path(world, wall, free)


def test_plan_path_rejects_out_of_bounds():
    world = corridor_world()
    with pytest.raises(ValueError):
        plan_path(world, Pose(x=-1.0, y=0.0, theta=0.0), center_pose(world, (0, 0)))
    world.steps_between((0, 0), (0, 0))  # a cached end is read, so the other must be checked
    for a, b in (((-1, 0), (0, 0)), ((0, 0), (-1, 0)), ((0, 0), (0, 1))):
        with pytest.raises(ValueError, match="outside"):
            world.steps_between(a, b)


def test_plan_path_matches_bfs_oracle():
    rng = np.random.default_rng(31)
    for _ in range(60):
        grid = rng.random((15, 15)) < 0.25
        free = np.argwhere(~grid)
        if len(free) < 2:
            continue
        pick = rng.choice(len(free), size=2, replace=False)
        start_cell = (int(free[pick[0]][1]), int(free[pick[0]][0]))
        goal_cell = (int(free[pick[1]][1]), int(free[pick[1]][0]))
        world = GridWorld(grid=grid, cell_m=0.25)
        steps = plan_path(world, center_pose(world, start_cell),
                          center_pose(world, goal_cell))
        assert steps == bfs_steps(grid, start_cell, goal_cell)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12),
       density=st.sampled_from([0.0, 0.2, 0.4]), seed=st.integers(0, 2**32 - 1),
       picks=st.tuples(*[st.integers(0, 143)] * 3),
       cached=st.sampled_from(["fresh", "neither", "start", "goal", "both"]))
def test_plan_path_counts_bfs_steps_whichever_field_is_cached(rows, cols, density, seed,
                                                               picks, cached):
    grid = np.random.default_rng(seed).random((rows, cols)) < density
    free = [(int(c), int(r)) for r, c in np.argwhere(~grid)]
    assume(free)
    start_cell, goal_cell, other = (free[p % len(free)] for p in picks)
    assume(cached != "neither" or other not in (start_cell, goal_cell))
    world = GridWorld(grid=grid, cell_m=0.25)
    warm = {"fresh": [], "neither": [other], "start": [start_cell],
            "goal": [goal_cell], "both": [start_cell, goal_cell]}[cached]
    for cell in warm:
        whole_field(world, cell)
    steps = plan_path(world, center_pose(world, start_cell), center_pose(world, goal_cell))
    assert steps == bfs_steps(grid, start_cell, goal_cell)
    # A cached end is read; with neither end cached the goal's field is built.
    ends = {start_cell, goal_cell}
    assert set(world._fields._items) \
        == set(warm) | ({goal_cell} if ends.isdisjoint(warm) else set())


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(1, 16), cols=st.integers(1, 16),
       density=st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.6]),
       seed=st.integers(0, 2**32 - 1), goal_pick=st.integers(0, 255))
def test_distance_field_matches_bfs_oracle(rows, cols, density, seed, goal_pick):
    grid = np.random.default_rng(seed).random((rows, cols)) < density
    goal = (goal_pick % cols, goal_pick // cols % rows)
    field = whole_field(GridWorld(grid=grid, cell_m=0.25), goal)
    assert field.shape == grid.shape
    for row in range(rows):
        for col in range(cols):
            if grid[row, col]:
                assert field[row, col] == -1
                continue
            oracle = breadth_first_path(grid, (col, row), goal)
            assert field[row, col] == (len(oracle) - 1 if oracle else -1)


def test_distance_field_values_and_outside_goal():
    world = parse_world("..#\n...\n")
    assert whole_field(world, (0, 0)).tolist() == [[0, 1, -1], [1, 2, 3]]
    with pytest.raises(ValueError, match="outside"):
        world.steps_between((0, 0), (3, 0))


def test_distance_field_cache_drops_least_recently_used():
    world = GridWorld(grid=np.zeros((9, 9), dtype=bool), cell_m=0.25)
    goals = [(c, r) for r in range(9) for c in range(9)][:FIELD_CACHE_SIZE + 2]
    fields = {goal: whole_field(world, goal) for goal in goals[:FIELD_CACHE_SIZE]}
    cached = {goal: world._fields._items[goal] for goal in goals[:FIELD_CACHE_SIZE]}
    assert np.array_equal(whole_field(world, goals[0]), fields[goals[0]])
    assert world._fields._items[goals[0]] is cached[goals[0]]  # a hit, now most recent
    for goal in goals[FIELD_CACHE_SIZE:]:
        whole_field(world, goal)
    assert len(world._fields._items) == FIELD_CACHE_SIZE
    assert goals[0] in world._fields
    assert goals[1] not in world._fields and goals[2] not in world._fields
    assert np.array_equal(whole_field(world, goals[0]), fields[goals[0]])
    assert world._fields._items[goals[0]] is cached[goals[0]]
    refetched = whole_field(world, goals[1])
    assert world._fields._items[goals[1]] is not cached[goals[1]]
    assert np.array_equal(refetched, fields[goals[1]])


def serpentine_world(side=33):
    """Walls on odd rows, each open at alternating ends: one corridor whose
    far end lies more than 511 steps from the near one."""
    grid = np.zeros((side, side), dtype=bool)
    for row in range(1, side, 2):
        grid[row] = True
        grid[row, side - 1 if row % 4 == 1 else 0] = False
    return GridWorld(grid=grid, cell_m=0.25)


def test_distance_field_past_511_steps_matches_bfs_oracle():
    world = serpentine_world()
    goal = (0, 0)
    field = whole_field(world, goal)
    assert field.max() > 511  # steps read from bit-planes 8 and 9
    free = [(col, row) for row in range(world.rows) for col in range(world.cols)
            if not world.grid[row, col]]
    for cell in free:
        oracle = breadth_first_path(world.grid, cell, goal)
        assert field[cell[1], cell[0]] == len(oracle) - 1
    assert (field[world.grid] == -1).all()
    far = max(free, key=lambda cell: field[cell[1], cell[0]])
    for cell in (far, (world.cols - 1, 8), (16, 16)):
        oracle = breadth_first_path(world.grid, goal, cell)
        start, end = center_pose(world, goal), center_pose(world, cell)
        assert plan_path(world, start, end) == len(oracle) - 1  # reads goal's field
        assert plan_path(serpentine_world(), start, end) == len(oracle) - 1  # builds cell's


def test_field_grown_in_stages_across_run_boundaries_matches_bfs_oracle():
    world = serpentine_world()
    goal = (0, 0)
    corridor = breadth_first_path(world.grid, goal, (world.cols - 1, world.rows - 1))
    for steps in (255, 256, 511, 512):
        # 255 and 511 pause with every lower plane's run open; 256 and 512
        # close them and open the next plane's first run.
        cell = corridor[steps]
        oracle = breadth_first_path(world.grid, cell, goal)
        assert plan_path(world, center_pose(world, cell), center_pose(world, goal)) \
            == len(oracle) - 1 == steps
        assert list(world._fields._items) == [goal]
        assert world._fields._items[goal].step == steps  # paused on reaching cell
    field = whole_field(world, goal)
    for row in range(world.rows):
        for col in range(world.cols):
            oracle = breadth_first_path(world.grid, (col, row), goal)
            assert field[row, col] == (len(oracle) - 1 if oracle else -1)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 10), cols=st.integers(1, 10),
       density=st.sampled_from([0.0, 0.2, 0.4]), seed=st.integers(0, 2**32 - 1),
       calls=st.lists(st.tuples(st.booleans(), st.integers(0, 4), st.integers(0, 4)),
                      min_size=1, max_size=16))
def test_paused_fields_evicted_part_grown_answer_like_the_bfs_oracle(rows, cols, density,
                                                                     seed, calls):
    rng = np.random.default_rng(seed)
    grid = rng.random((rows, cols)) < density
    # Calls among five cells, so fields are resumed as well as evicted.
    cells = [(int(col), int(row)) for row, col in rng.integers((rows, cols), size=(5, 2))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(navsim, "FIELD_CACHE_SIZE", 2)
        world = GridWorld(grid=grid, cell_m=0.25)
        for whole, i, j in calls:
            a, b = cells[i], cells[j]
            if whole:
                field = whole_field(world, b)
                assert [[field[row, col] for col in range(cols)] for row in range(rows)] \
                    == [[bfs_steps(grid, (col, row), b) for col in range(cols)]
                        for row in range(rows)]
            else:
                assert world.steps_between(a, b) == bfs_steps(grid, a, b)
            assert len(world._fields._items) <= 2


def test_distance_field_to_an_occupied_goal_is_all_unreachable():
    world = parse_world("...\n.#.\n...\n")
    assert whole_field(world, (1, 1)).tolist() == [[-1] * 3] * 3
    assert world.steps_between((0, 0), (1, 1)) == -1


def test_plan_path_same_on_cache_hit_as_on_fresh_world():
    rng = np.random.default_rng(5)
    grid = rng.random((14, 14)) < 0.25
    free = np.argwhere(~grid)
    warm = GridWorld(grid=grid, cell_m=0.25)
    for _ in range(40):
        a, b = rng.choice(len(free), size=2, replace=False)
        start = center_pose(warm, (int(free[a][1]), int(free[a][0])))
        goal = center_pose(warm, (int(free[b][1]), int(free[b][0])))
        first = plan_path(warm, start, goal)
        assert plan_path(warm, start, goal) == first
        assert plan_path(GridWorld(grid=grid, cell_m=0.25), start, goal) == first


def test_worlds_compare_by_identity_and_repr_ignores_field_cache():
    grid = np.zeros((4, 5), dtype=bool)
    filled = GridWorld(grid=grid, cell_m=0.25)
    empty = GridWorld(grid=grid, cell_m=0.25)
    for col in range(5):
        whole_field(filled, (col, 0))
    assert filled == filled and filled != empty
    assert {filled: "seen"}[filled] == "seen"
    assert repr(filled) == repr(empty)


def test_world_keeps_its_own_copy_of_the_grid():
    grid = np.zeros((3, 4), dtype=bool)
    world = GridWorld(grid=grid, cell_m=0.25)
    grid[0, 0] = True
    assert grid[0, 0] and not world.occupied((0, 0))
    assert not world.grid.flags.writeable


# ----------------------------------------------------------------------
# Field of view

# No world to look through: occlusion off.
OPEN = FovParams(occlusion=False)


def test_in_fov_hand_bearing():
    pose = Pose(x=0.0, y=0.0, theta=0.0)
    # bearing atan2(0.5, 1.0) = 26.57 degrees, inside the 45 degree half-angle
    fov = FovParams(half_angle=math.pi / 4.0, max_range=3.0, occlusion=False)
    assert in_fov(pose, (1.0, 0.5), fov, None)


def test_in_fov_target_behind():
    pose = Pose(x=0.0, y=0.0, theta=0.0)
    assert not in_fov(pose, (-1.0, 0.0), OPEN, None)


def test_in_fov_range_cut():
    pose = Pose(x=0.0, y=0.0, theta=0.0)
    fov = FovParams(max_range=3.0, occlusion=False)
    assert not in_fov(pose, (3.5, 0.0), fov, None)
    assert in_fov(pose, (3.0, 0.0), fov, None)


def test_in_fov_bearing_boundary():
    pose = Pose(x=0.0, y=0.0, theta=0.0)
    fov = FovParams(half_angle=math.pi / 4.0, max_range=3.0, occlusion=False)
    assert in_fov(pose, (1.0, 1.0), fov, None)


def test_in_fov_zero_distance():
    assert in_fov(Pose(x=1.0, y=1.0, theta=0.5), (1.0, 1.0), OPEN, None)


def test_in_fov_validates_params():
    with pytest.raises(ValueError):
        FovParams(half_angle=0.0)
    with pytest.raises(ValueError):
        FovParams(half_angle=math.pi)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            FovParams(max_range=bad)
    pose = Pose(x=0.0, y=0.0, theta=0.0)
    no_limit = FovParams(max_range=math.inf, occlusion=False)
    assert in_fov(pose, (1e9, 0.0), no_limit, None)


def test_in_fov_occlusion_switchable():
    world = parse_world("..#..\n")
    pose = center_pose(world, (0, 0))
    target = world.cell_center((4, 0))
    assert not in_fov(pose, target, FovParams(), world)
    assert in_fov(pose, target, FovParams(occlusion=False), world)


def test_in_fov_endpoint_cells_never_block():
    world = parse_world(".#\n")
    pose = center_pose(world, (0, 0))
    target = world.cell_center((1, 0))
    assert in_fov(pose, target, FovParams(), world)


def test_in_fov_open_line_of_sight():
    world = parse_world(".....\n")
    pose = center_pose(world, (0, 0))
    assert in_fov(pose, world.cell_center((4, 0)), FovParams(), world)


# ----------------------------------------------------------------------
# Episodes

def episode_fixture():
    """Corridor with a sofa at the far end and two viewing poses."""
    world = parse_world("........\n\nob1 sofa 7 0\n")
    near = center_pose(world, (4, 0), theta=0.0)       # faces the sofa
    away = center_pose(world, (1, 0), theta=math.pi)   # faces the wrong way
    basis = unit_rows(3)
    memory = [MemoryEntry("m_away", away, basis[0]),
              MemoryEntry("m_near", near, basis[1]),
              MemoryEntry("m_far", center_pose(world, (0, 0), theta=0.0), basis[2])]
    return world, memory, basis


def test_episode_oracle_placement():
    world, memory, basis = episode_fixture()
    prompts = []

    def encode(text):
        prompts.append(text)
        return basis[1]  # ranks m_near first

    start = center_pose(world, (0, 0))
    result = execute_episode("Where is the sofa?", "sofa", memory, world,
                             k=1, encode=encode, start=start)
    assert prompts == ["sofa. Where is the sofa?"]
    assert result.ranked_ids == ["m_near"]
    assert result.object_in_fov is True
    assert result.stop_pose == memory[1].pose
    assert result.distance == pytest.approx(3 * 0.25)
    assert result.path_cells == 4


def test_episode_with_an_empty_query_encodes_the_bare_noun():
    world, memory, basis = episode_fixture()
    prompts = []

    def encode(text):
        prompts.append(text)
        return basis[1]

    result = execute_episode("", "sofa", memory, world, k=1, encode=encode,
                             start=center_pose(world, (0, 0)))
    assert prompts == ["sofa"]
    assert result.ranked_ids == ["m_near"]


def test_episode_rank1_faces_away():
    world, memory, basis = episode_fixture()
    result = execute_episode("Where is the sofa?", "sofa", memory, world,
                             k=1, encode=lambda _: basis[0],
                             start=center_pose(world, (0, 0)))
    assert result.ranked_ids == ["m_away"]
    assert result.object_in_fov is False
    assert result.stop_pose == memory[0].pose


def test_episode_second_candidate_succeeds():
    world, memory, basis = episode_fixture()
    # Rank m_away first, m_near second.
    query_vec = 0.9 * basis[0] + 0.4358898943540674 * basis[1]

    result = execute_episode("Where is the sofa?", "sofa", memory, world,
                             k=2, encode=lambda _: query_vec,
                             start=center_pose(world, (0, 0)))
    assert result.ranked_ids == ["m_away", "m_near"]
    assert len(result.visited) == 2
    assert result.stop_pose == memory[1].pose
    assert result.object_in_fov is True
    # Hand trace: 1 step to the first candidate, 3 more to the second.
    assert result.path_cells == 4


def test_episode_skips_unreachable_candidate():
    text = "...#.\n\nob1 sofa 4 0\n"
    world = parse_world(text)
    # The cell east of the wall is free but unreachable from the west side.
    trapped = center_pose(world, (4, 0), theta=math.pi)
    near = center_pose(world, (2, 0), theta=0.0)
    basis = unit_rows(2)
    memory = [MemoryEntry("m_trapped", trapped, basis[0]),
              MemoryEntry("m_near", near, basis[1])]
    query = 0.9 * basis[0] + 0.4358898943540674 * basis[1]
    result = execute_episode("", "sofa", memory, world, k=2,
                             encode=lambda _: query,
                             start=center_pose(world, (0, 0)))
    assert world.steps_between((0, 0), (4, 0)) == -1
    assert result.notes == ["skipped m_trapped: unreachable"]
    assert len(result.visited) == 1
    assert result.stop_pose == near


def test_episode_skips_a_candidate_whose_pose_plan_path_rejects():
    world = parse_world("..#..\n\nob1 sofa 4 0\n")
    # m_wall's pose lies in the wall cell, which plan_path rejects as a goal.
    wall = center_pose(world, (2, 0))
    far = center_pose(world, (0, 0), theta=0.0)
    basis = unit_rows(2)
    memory = [MemoryEntry("m_wall", wall, basis[0]),
              MemoryEntry("m_far", far, basis[1])]
    query = 0.9 * basis[0] + 0.4358898943540674 * basis[1]
    start = center_pose(world, (1, 0))
    with pytest.raises(ValueError) as rejected:
        plan_path(world, start, wall)
    result = execute_episode("", "sofa", memory, world, k=2,
                             encode=lambda _: query, start=start)
    assert result.ranked_ids == ["m_wall", "m_far"]
    assert result.notes == [f"skipped m_wall: {rejected.value}"]
    assert str(rejected.value) == "goal cell (2, 0) is occupied"
    assert result.visited == [far]
    assert result.path_cells == 1


def test_episode_skips_walled_in_goal():
    world = parse_world(".....\n.###.\n.#.#.\n.###.\n.....\n\nob1 sofa 4 4\n")
    enclosed = center_pose(world, (2, 2))
    corner = center_pose(world, (4, 3), theta=math.pi / 2.0)
    basis = unit_rows(2)
    memory = [MemoryEntry("m_enclosed", enclosed, basis[0]),
              MemoryEntry("m_corner", corner, basis[1])]
    query = 0.9 * basis[0] + 0.4358898943540674 * basis[1]
    start = center_pose(world, (0, 0))
    assert world.steps_between((0, 0), (2, 2)) == -1
    result = execute_episode("", "sofa", memory, world, k=2,
                             encode=lambda _: query, start=start)
    assert result.ranked_ids == ["m_enclosed", "m_corner"]
    assert result.notes == ["skipped m_enclosed: unreachable"]
    assert result.visited == [corner]
    assert result.path_cells == 7
    assert result.object_in_fov is True


def test_episode_all_unreachable():
    text = "...#.\n\nob1 sofa 0 0\n"
    world = parse_world(text)
    trapped = center_pose(world, (4, 0))
    memory = [MemoryEntry("m_trapped", trapped, np.array([1.0]))]
    start = center_pose(world, (1, 0), theta=math.pi)
    result = execute_episode("", "sofa", memory, world, k=1,
                             encode=lambda _: np.array([1.0]), start=start)
    assert result.visited == [start]
    assert result.stop_pose == start
    assert result.object_in_fov is False
    assert "all candidates unreachable" in result.notes


def test_episode_requires_known_noun():
    world, memory, basis = episode_fixture()
    with pytest.raises(ValueError, match="no object named"):
        execute_episode("", "piano", memory, world, k=1,
                        encode=lambda _: basis[0],
                        start=center_pose(world, (0, 0)))


def test_episode_validates_inputs():
    world, memory, basis = episode_fixture()
    start = center_pose(world, (0, 0))
    with pytest.raises(ValueError):
        execute_episode("", "sofa", memory, world, k=0,
                        encode=lambda _: basis[0], start=start)
    with pytest.raises(ValueError):
        execute_episode("", "sofa", [], world, k=1,
                        encode=lambda _: basis[0], start=start)


def test_episode_deterministic():
    world, memory, basis = episode_fixture()
    runs = [execute_episode("Where is the sofa?", "sofa", memory, world,
                            k=2, encode=lambda _: basis[1],
                            start=center_pose(world, (0, 0)))
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_episodes_identical_on_warm_and_fresh_worlds():
    rng = np.random.default_rng(17)
    grid = rng.random((12, 12)) < 0.25
    free = [(int(c), int(r)) for r, c in np.argwhere(~grid)]
    picks = rng.choice(len(free), size=14, replace=False)
    objects = (WorldObject("ob1", "sofa", free[picks[0]]),
               WorldObject("ob2", "sofa", free[picks[1]]))
    basis = unit_rows(8)
    world = GridWorld(grid=grid, cell_m=0.25, objects=objects)
    memory = [MemoryEntry(f"m{i}", center_pose(world, free[p], theta=float(i)), basis[i])
              for i, p in enumerate(picks[2:10])]
    calls = []
    for p in picks[10:]:
        vec = rng.normal(size=8)
        calls.append((vec / np.linalg.norm(vec), center_pose(world, free[p])))

    def run(target):
        return [episode_to_json(execute_episode("Where is the sofa?", "sofa", memory,
                                                target, k=4, encode=lambda _, v=vec: v,
                                                start=start))
                for vec, start in calls]

    cold = run(world)
    assert run(world) == cold
    assert run(GridWorld(grid=grid, cell_m=0.25, objects=objects)) == cold
    assert sum(record["path_cells"] for record in cold) > 0


def test_episode_over_k_reachable_candidates_builds_at_most_half_their_fields():
    # Each leg starts at the last leg's goal, so every other leg reads a cached field.
    rng = np.random.default_rng(23)
    grid = np.zeros((9, 9), dtype=bool)
    grid[4, 1:8] = True
    free = [(int(c), int(r)) for r, c in np.argwhere(~grid)]
    blind = FovParams(max_range=0.1)  # sees only its own cell, so every leg runs
    for k in range(1, 13):
        picks = rng.choice(len(free), size=k + 2, replace=False)
        sofa, start = free[picks[0]], free[picks[1]]
        world = GridWorld(grid=grid, cell_m=0.25,
                          objects=(WorldObject("ob1", "sofa", sofa),))
        memory = [MemoryEntry(f"m{i}", center_pose(world, free[p]), np.array([1.0]))
                  for i, p in enumerate(picks[2:])]
        result = execute_episode("", "sofa", memory, world, k=k,
                                 encode=lambda _: np.array([1.0]),
                                 start=center_pose(world, start), fov=blind)
        assert len(result.visited) == k and not result.notes
        assert len(world._fields._items) <= math.ceil(k / 2)
        assert result.path_cells == sum(
            bfs_steps(grid, world.cell_of(a.x, a.y), world.cell_of(b.x, b.y))
            for a, b in zip([center_pose(world, start)] + result.visited, result.visited))


def test_episode_rank_ties_break_by_id():
    world = parse_world("....\n\nob1 sofa 3 0\n")
    pose = center_pose(world, (1, 0))
    vec = np.array([1.0, 0.0])
    memory = [MemoryEntry("m_b", pose, vec), MemoryEntry("m_a", pose, vec)]
    result = execute_episode("", "sofa", memory, world, k=2,
                             encode=lambda _: vec,
                             start=center_pose(world, (0, 0)))
    assert result.ranked_ids == ["m_a", "m_b"]


def test_episode_ranks_like_topk_images_on_near_ties():
    # Rows are coordinate permutations of one vector, so against an all-ones
    # query every score is the same sum up to rounding: the order rests on
    # the last bits of the scores and on the id tie-break.
    rng = np.random.default_rng(0)
    world = parse_world("....\n\nob1 sofa 3 0\n")
    pose = center_pose(world, (1, 0))
    query = np.ones(8)
    for _ in range(300):
        base = rng.normal(size=8)
        index = build_index(np.stack([rng.permutation(base) for _ in range(30)]),
                            [f"m{j:02d}" for j in rng.permutation(30)])
        memory = [MemoryEntry(image_id, pose, index.matrix[r])
                  for r, image_id in enumerate(index.ids)]
        result = execute_episode("", "sofa", memory, world, k=5,
                                 encode=lambda _: query,
                                 start=center_pose(world, (0, 0)))
        assert result.ranked_ids == topk_images(query, index, 5)


def test_episode_k_beyond_memory_returns_every_entry():
    world, memory, basis = episode_fixture()
    result = execute_episode("", "sofa", memory, world, k=5,
                             encode=lambda _: basis[2],
                             start=center_pose(world, (0, 0)))
    assert result.ranked_ids == ["m_far", "m_away", "m_near"]


def test_episode_rejects_memory_embeddings_of_unequal_dimension():
    world, memory, basis = episode_fixture()
    short = MemoryEntry("m_short", memory[0].pose, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        execute_episode("", "sofa", [*memory, short], world, k=1,
                        encode=lambda _: basis[0], start=center_pose(world, (0, 0)))


def test_episode_rejects_non_finite_query():
    world, memory, basis = episode_fixture()
    with pytest.raises(ValueError, match="non-finite"):
        execute_episode("", "sofa", memory, world, k=1,
                        encode=lambda _: np.array([np.nan, 0.0, 0.0]),
                        start=center_pose(world, (0, 0)))


# ----------------------------------------------------------------------
# Success metrics

def fake_episode(distance, fov):
    pose = Pose(x=0.0, y=0.0, theta=0.0)
    return EpisodeResult(query="q", ranked_ids=["m"], visited=[pose],
                         stop_pose=pose, distance=distance,
                         object_in_fov=fov, path_cells=0)


def test_success_rate_all_hits():
    episodes = [fake_episode(0.2, True) for _ in range(3)]
    assert success_rate(episodes, 1.0).success_rate == 1.0
    assert success_rate(episodes, 2.0).success_rate == 1.0


def test_success_rate_hand_counted():
    episodes = [fake_episode(d, True) for d in (0.5, 1.5, 1.5, 3.0)]
    assert success_rate(episodes, 1.0).success_rate == 0.25
    assert success_rate(episodes, 2.0).success_rate == 0.75


def test_success_rate_requires_fov():
    episodes = [fake_episode(0.1, False) for _ in range(4)]
    report = success_rate(episodes, 2.0)
    assert report.success_rate == 0.0
    assert report.fov_rate == 0.0


def test_success_rate_monotone_in_radius():
    rng = np.random.default_rng(7)
    episodes = [fake_episode(float(d), bool(f))
                for d, f in zip(rng.uniform(0, 4, 40), rng.integers(0, 2, 40))]
    assert success_rate(episodes, 2.0).success_rate >= \
        success_rate(episodes, 1.0).success_rate


def test_success_rate_contract_errors():
    with pytest.raises(ValueError):
        success_rate([], 1.0)
    with pytest.raises(ValueError):
        success_rate([fake_episode(0.1, True)], 0.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_success_rate_rejects_a_non_finite_radius(radius):
    with pytest.raises(ValueError, match="finite positive"):
        success_rate([fake_episode(0.1, True)], radius)


def test_episode_result_invariants():
    pose = Pose(x=0.0, y=0.0, theta=0.0)
    other = Pose(x=1.0, y=0.0, theta=0.0)
    with pytest.raises(ValueError):
        EpisodeResult(query="q", ranked_ids=[], visited=[pose], stop_pose=other,
                      distance=1.0, object_in_fov=False, path_cells=0)
    with pytest.raises(ValueError):
        EpisodeResult(query="q", ranked_ids=[], visited=[pose], stop_pose=pose,
                      distance=-0.5, object_in_fov=False, path_cells=0)


def test_episode_log(tmp_path):
    world, memory, basis = episode_fixture()
    result = execute_episode("Where is the sofa?", "sofa", memory, world,
                             k=1, encode=lambda _: basis[1],
                             start=center_pose(world, (0, 0)))
    path = str(tmp_path / "episodes.jsonl")
    save_episode_log([result], path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["query"] == "Where is the sofa?"
    assert record["ranked_ids"] == ["m_near"]
    assert record["object_in_fov"] is True
    assert set(record["stop_pose"]) == {"x", "y", "theta"}
