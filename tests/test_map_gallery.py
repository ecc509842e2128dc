"""Tests for the Fig. 2 gallery experiment."""

from repro.bench.experiments.fig2_gallery import contact_sheet, run


class TestFig2Gallery:
    def test_contact_sheet_geometry(self, builder, small_index):
        frames = [small_index[i].render(builder.renderer)
                  for i in range(5)]
        sheet = contact_sheet(frames, cols=3)
        assert sheet.shape == (2 * 64, 3 * 64, 3)

    def test_experiment_claims_hold(self):
        result = run()
        assert result.all_claims_hold, result.failed_claims()
        assert len(result.rows) == 12
