"""The end-to-end facade: wrangle an archive, then search it.

:class:`DataNearHere` wires the whole poster together — the wrangling
chain builds and publishes the metadata catalog, the search engine ranks
over it, summaries and renderers serve the UI figures.  This is the
entry point the examples and most downstream users want; every part
remains individually importable for finer control.
"""

from __future__ import annotations

from .archive.filesystem import VirtualArchive
from .catalog.store import CatalogStore, MemoryCatalog
from .core.cache import QueryCache
from .core.query import Query
from .core.scoring import ScoringConfig
from .core.search import BooleanSearchEngine, SearchEngine, SearchResults
from .core.summary import DatasetSummary, summarize
from .curator.session import CuratorSession
from .obs import Telemetry, use_telemetry
from .ui.render import render_search_text, render_summary_text
from .wrangling.chain import ChainRunReport, ProcessChain, default_chain
from .wrangling.state import WranglingState
from .wrangling.validate import ValidationReport, validate


class NotWrangledError(RuntimeError):
    """Raised when search is attempted before any catalog was published."""


class DataNearHere:
    """Scientific-data search over a wrangled metadata catalog."""

    def __init__(
        self,
        fs: VirtualArchive,
        chain: ProcessChain | None = None,
        published: CatalogStore | None = None,
        scoring: ScoringConfig | None = None,
        workers: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        # `published` may be an *empty* store, which is falsy — test
        # against None, not truthiness.
        self.state = WranglingState(
            fs=fs,
            published=published if published is not None else MemoryCatalog(),
        )
        self.chain = chain or default_chain()
        if workers is not None:
            self.set_scan_workers(workers)
        self.scoring = scoring or ScoringConfig()
        self._engine: SearchEngine | None = None
        # One cache for the system's lifetime: entries are keyed on the
        # catalog version, so they survive engine rebuilds and re-runs
        # of an unchanged archive ("run & rerun" stays warm).
        self._cache = QueryCache(maxsize=512)
        # One telemetry registry for the system's lifetime: every
        # wrangle/search runs under it, so counters accumulate across
        # runs and the span tree covers the whole session.
        self.telemetry = telemetry if telemetry is not None else Telemetry()

    # -- wrangling ---------------------------------------------------------

    def set_scan_workers(self, workers: int | None) -> None:
        """Set the ingest parallelism on the chain's scan component.

        ``None`` restores the default (one worker per CPU); ``1`` forces
        the serial path.  A chain without a scan-archive component is
        left untouched.
        """
        from .wrangling.scan import ScanArchive

        for component in self.chain.components:
            if isinstance(component, ScanArchive):
                component.workers = workers

    def wrangle(self) -> ChainRunReport:
        """Run the full wrangling chain and point search at the result.

        A rerun that publishes into the same store keeps the engine, and
        with it the query cache: entries are keyed on the catalog
        version and the hierarchy's content, so an unchanged archive
        stays warm.
        """
        with use_telemetry(self.telemetry):
            report = self.chain.run(self.state)
            published = self.state.published
            engine = self._engine
            if engine is not None and engine.catalog is published:
                engine.hierarchy = self.state.hierarchy
            else:
                self._engine = SearchEngine(
                    published,
                    hierarchy=self.state.hierarchy,
                    config=self.scoring,
                    cache=self._cache,
                )
        return report

    def validate(self) -> ValidationReport:
        """Validation checks over the working catalog."""
        return validate(self.state)

    @property
    def quarantine(self):
        """The quarantine log: files the scan set aside, with reasons.

        Quarantined paths are retried automatically on every
        :meth:`wrangle`; entries resolve when the file is repaired (and
        catalogs successfully) or disappears from the archive.
        """
        return self.state.quarantine

    def quarantine_report(self) -> str:
        """The rendered quarantine page (text)."""
        from .ui.health import render_quarantine_report

        return render_quarantine_report(self.state.quarantine)

    def curator_session(self) -> CuratorSession:
        """A curator session sharing this system's chain and state."""
        return CuratorSession(
            self.state.fs, chain=self.chain, state=self.state
        )

    # -- search -------------------------------------------------------------

    @property
    def engine(self) -> SearchEngine:
        """The ranked search engine over the published catalog.

        Raises:
            NotWrangledError: before the first :meth:`wrangle`.
        """
        if self._engine is None:
            raise NotWrangledError("call wrangle() before searching")
        return self._engine

    def search(self, query: Query, limit: int = 10) -> SearchResults:
        """Ranked search over the published catalog."""
        with use_telemetry(self.telemetry):
            return self.engine.search(query, limit=limit)

    def search_stats(self) -> dict:
        """Engine counters (catalog version and size, query cache)."""
        return self.engine.stats()

    def search_service(self, config=None) -> "SearchService":
        """A concurrent :class:`~repro.serve.SearchService` front door.

        The service snapshots the published catalog and serves requests
        from any number of threads; call its ``refresh()`` after each
        :meth:`wrangle` to pick up the new version.  It shares this
        system's query cache (version-keyed entries stay warm across
        snapshot refreshes of an unchanged catalog) and telemetry
        registry (request spans land in the same session trace).

        Raises:
            NotWrangledError: before the first :meth:`wrangle`.
        """
        from .serve import SearchService

        engine = self.engine  # raises NotWrangledError pre-wrangle
        return SearchService(
            engine.catalog,
            hierarchy=self.state.hierarchy,
            scoring=self.scoring,
            config=config,
            cache=self._cache,
            telemetry=self.telemetry,
        )

    def telemetry_snapshot(self) -> dict:
        """A point-in-time view of this system's telemetry registry.

        Counters, gauges, histograms, the recorded span tree, and
        per-path span statistics — everything the stats report and the
        JSONL trace sink render.  See :meth:`repro.obs.Telemetry.snapshot`.
        """
        return self.telemetry.snapshot()

    def search_page(self, query: Query, limit: int = 10) -> str:
        """The rendered search-results page (text)."""
        return render_search_text(query, self.search(query, limit=limit))

    def baseline_engine(self) -> BooleanSearchEngine:
        """The unranked boolean baseline over the same catalog."""
        return BooleanSearchEngine(
            self.engine.catalog, hierarchy=self.state.hierarchy
        )

    def similar(self, dataset_id: str, limit: int = 5):
        """'More datasets like this one' over the published catalog."""
        from .core.similar import similar_datasets

        return similar_datasets(
            self.engine.catalog,
            dataset_id,
            limit=limit,
            hierarchy=self.state.hierarchy,
            config=self.scoring,
        )

    # -- summaries -----------------------------------------------------------

    def summary(self, dataset_id: str) -> DatasetSummary:
        """The dataset-summary content for one published dataset."""
        feature = self.engine.catalog.get(dataset_id)
        return summarize(feature, taxonomy_links=self.state.taxonomy_links)

    def summary_page(self, dataset_id: str) -> str:
        """The rendered dataset-summary page (text)."""
        return render_summary_text(self.summary(dataset_id))
