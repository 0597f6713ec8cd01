//! Shared page-realm templates.
//!
//! Building a page realm — interpreter bootstrap plus the full
//! `window`/`navigator`/`screen`/`document` host-object surface — costs far
//! more than most visits' script execution. Since [`install_window`]
//! captures no per-page state (native functions fetch the [`PageHost`]
//! through the interpreter at call time), a realm built once per profile
//! can be *cloned* for every page instead of rebuilt: [`PageTemplate`]
//! holds the installed realm, and [`PageTemplate::instantiate`] clones it,
//! attaches a fresh host, and re-points the per-page location data.
//!
//! A template may also be frozen from a page that already ran setup
//! scripts ([`PageTemplate::from_page`]). The OpenWPM browser uses this to
//! *pre-install* its vanilla instrument: the wrapping loop runs once in the
//! template with a placeholder event id, and each page is a clone whose
//! closure scopes are private copies ([`Interp::clone_realm`] deep-copies
//! them), so the embedder only binds the page's own event id into the
//! cloned scope. The template keeps the setup's interpreter counts
//! ([`PageTemplate::setup_profile`]) and the clone keeps its step count,
//! so a pre-installed page profiles and budgets exactly like one that ran
//! the setup itself. Setup whose outcome depends on the page (a CSP that
//! blocks the injection) cannot be pre-installed and keeps running per
//! page on the plain template.
//!
//! Clones are observably identical to scratch-built pages: heap cloning
//! preserves object ids and property insertion order, and
//! [`Interp::clone_realm`] resets the call stack, clock and job queue to
//! the fresh-realm defaults. The browser manager treats templates as
//! part of the shared compiled-artifact layer and only uses them when the
//! process-wide compile cache is enabled, so ablation runs
//! (`--no-compile-cache`) exercise the rebuild-per-page path.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use jsengine::{Interp, Profile};
use netsim::Url;

use crate::csp::CspPolicy;
use crate::hostobjects::{install_window, repoint_location};
use crate::page::{Page, PageHost, RealmWindow};
use crate::profile::FingerprintProfile;

/// A pre-built page realm for one fingerprint profile, cloned per visit.
pub struct PageTemplate {
    profile: Arc<FingerprintProfile>,
    interp: Interp,
    top: RealmWindow,
    /// Interpreter counts of the setup scripts a frozen page ran.
    setup_profile: Option<Profile>,
}

impl PageTemplate {
    /// Build the template realm: one interpreter bootstrap plus one
    /// host-object installation, paid once per (browser, profile).
    pub fn new(profile: impl Into<Arc<FingerprintProfile>>) -> PageTemplate {
        let profile = profile.into();
        let mut interp = Interp::new();
        // The build-time host only feeds the few values install_window
        // reads eagerly (profile geometry, fonts count, a placeholder
        // URL); it is dropped with this scope and never sees a script.
        let host = Rc::new(RefCell::new(PageHost::new(
            profile.clone(),
            Url::parse("https://template.invalid/").expect("placeholder URL parses"),
            None,
        )));
        interp.host = Some(host.clone());
        let top = install_window(&mut interp, &host, true);
        interp.host = None;
        PageTemplate { profile, interp, top, setup_profile: None }
    }

    /// Freeze a set-up page as a template: its realm, including whatever
    /// the setup scripts built, is what every instance starts from. The
    /// page's host is dropped, so the setup must have left no host-side
    /// state (traffic, listeners, frames, sinks, hooks) and no pending
    /// jobs. If the page was profiling, its counts become
    /// [`setup_profile`](PageTemplate::setup_profile).
    pub fn from_page(mut page: Page) -> PageTemplate {
        debug_assert!(!page.interp.has_pending_jobs(), "template setup left pending jobs");
        debug_assert!(page.interp.stack.is_empty(), "template setup left frames on the stack");
        {
            let host = page.host.borrow();
            debug_assert!(
                host.traffic.is_empty()
                    && host.listeners.is_empty()
                    && host.csp_violations == 0
                    && host.frames.is_empty()
                    && host.event_sinks.is_empty()
                    && host.frame_sync_hooks.is_empty()
                    && host.frame_async_hooks.is_empty()
                    && host.js_cookies.is_empty(),
                "template setup left host-side state behind"
            );
        }
        let setup_profile = page.take_profile();
        page.interp.host = None;
        let profile = page.host.borrow().profile.clone();
        PageTemplate { profile, interp: page.interp, top: page.top, setup_profile }
    }

    /// The profile this template was built for.
    pub fn profile(&self) -> &Arc<FingerprintProfile> {
        &self.profile
    }

    /// Interpreter counts of the setup a [`from_page`](PageTemplate::from_page)
    /// template ran, for seeding an instance's profiler
    /// ([`Interp::enable_profiling_from`]); `None` for a plain template.
    pub fn setup_profile(&self) -> Option<&Profile> {
        self.setup_profile.as_ref()
    }

    /// Stamp out a page: clone the realm, attach a fresh [`PageHost`] for
    /// `url`/`csp`, and re-point the location data baked in at build time.
    pub fn instantiate(&self, url: Url, csp: Option<CspPolicy>) -> Page {
        let mut interp = self.interp.clone_realm();
        let host = Rc::new(RefCell::new(PageHost::new(self.profile.clone(), url.clone(), csp)));
        host.borrow_mut().set_top(self.top);
        interp.host = Some(host.clone());
        repoint_location(&mut interp, self.top, &url);
        Page { interp, host, top: self.top }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Os, RunMode};
    use crate::template::{capture_template, diff};
    use jsengine::Value;

    fn profile() -> FingerprintProfile {
        FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular)
    }

    /// A template clone must be indistinguishable from a scratch-built
    /// page under the strongest observer we have: the DOM-traversal
    /// template attack, which walks every reachable property.
    #[test]
    fn clone_is_observably_identical_to_scratch_build() {
        let url = Url::parse("https://site042.example/shop").unwrap();
        let tpl = PageTemplate::new(profile());
        let mut cloned = tpl.instantiate(url.clone(), None);
        let mut scratch = Page::new(profile(), url, None);
        let d = diff(&capture_template(&mut scratch), &capture_template(&mut cloned));
        assert!(d.is_empty(), "clone deviates from scratch build: {d:?}");
    }

    /// The location data must track the instantiation URL, not the
    /// placeholder the template was built with.
    #[test]
    fn instantiate_repoints_location() {
        let tpl = PageTemplate::new(profile());
        let mut p = tpl.instantiate(Url::parse("https://a.example/x/y").unwrap(), None);
        let href = p.run_script(("location.href", "t")).unwrap();
        assert_eq!(href.as_str().unwrap(), "https://a.example/x/y");
        let dom = p.run_script(("document.domain", "t")).unwrap();
        assert_eq!(dom.as_str().unwrap(), "a.example");
        // A second page from the same template sees its own URL.
        let mut q = tpl.instantiate(Url::parse("https://b.example/").unwrap(), None);
        let href = q.run_script(("location.hostname", "t")).unwrap();
        assert_eq!(href.as_str().unwrap(), "b.example");
    }

    /// Pages stamped from one template must not share mutable state:
    /// globals, cookies and traffic are per-page.
    #[test]
    fn instantiated_pages_are_isolated() {
        let tpl = PageTemplate::new(profile());
        let url = |h: &str| Url::parse(&format!("https://{h}/")).unwrap();
        let mut a = tpl.instantiate(url("a.example"), None);
        let mut b = tpl.instantiate(url("b.example"), None);
        a.run_script(("window.flag = 'A'; document.cookie = 'id=a';", "t")).unwrap();
        let seen = b.run_script(("typeof window.flag", "t")).unwrap();
        assert_eq!(seen.as_str().unwrap(), "undefined");
        assert!(b.host.borrow().js_cookies.is_empty());
        a.run_script(("navigator.sendBeacon('/bd/v?bot=0');", "t")).unwrap();
        assert_eq!(a.traffic().len(), 1);
        assert!(b.traffic().is_empty());
        // Host-object behaviour still works in both clones.
        let ua = b.run_script(("navigator.userAgent", "t")).unwrap();
        assert!(ua.as_str().unwrap().contains("Firefox"));
    }

    /// A template frozen from a set-up page hands each instance its own
    /// copy of the setup's closure state, its own location, and the
    /// setup's interpreter counts.
    #[test]
    fn frozen_setup_is_private_to_each_instance() {
        let url = |h: &str| Url::parse(&format!("https://{h}/")).unwrap();
        let mut setup = PageTemplate::new(profile()).instantiate(url("setup.invalid"), None);
        setup.enable_profiling();
        setup
            .run_script((
                "var next = (function(){ var n = 0; return function(){ return ++n; }; })();",
                "setup",
            ))
            .unwrap();
        let frozen = PageTemplate::from_page(setup);
        assert!(frozen.setup_profile().is_some_and(|p| p.ops > 0));
        let mut a = frozen.instantiate(url("a.example"), None);
        let mut b = frozen.instantiate(url("b.example"), None);
        a.run_script(("next()", "t")).unwrap();
        assert_eq!(a.run_script(("next()", "t")).unwrap(), Value::Num(2.0));
        assert_eq!(b.run_script(("next()", "t")).unwrap(), Value::Num(1.0));
        let host = b.run_script(("location.hostname", "t")).unwrap();
        assert_eq!(host.as_str().unwrap(), "b.example");
    }

    /// Frames created inside a clone attach to that clone's host.
    #[test]
    fn frames_in_clones_stay_per_page() {
        let tpl = PageTemplate::new(profile());
        let mut a = tpl.instantiate(Url::parse("https://a.example/").unwrap(), None);
        let b = tpl.instantiate(Url::parse("https://b.example/").unwrap(), None);
        a.run_script((
            "document.body.appendChild(document.createElement('iframe'));",
            "t",
        ))
        .unwrap();
        assert_eq!(a.frames().len(), 1);
        assert!(b.frames().is_empty());
    }
}
